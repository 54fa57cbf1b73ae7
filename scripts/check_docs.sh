#!/usr/bin/env bash
# Documentation lint for the public observability/API surface: every public
# method or free-function declaration in the headers below must carry a doc
# comment (a // line directly above, or a trailing // on the same line).
#
# The checker is a small awk scope tracker, not a C++ parser: it counts
# braces (comments stripped), remembers whether the enclosing scope is a
# namespace, a class after `public:`, a struct, or something to skip (enum
# bodies, function bodies, private/protected sections), and flags
# declaration-looking lines in public scope with no comment attached.
# Preprocessor lines, continuation lines, and `= delete`/`= default`
# declarations are exempt.
set -euo pipefail
cd "$(dirname "$0")/.."

HEADERS=(
  src/montage/epoch_sys.hpp
  src/montage/recoverable.hpp
  src/nvm/region.hpp
  src/util/telemetry.hpp
  src/util/perfcounters.hpp
  src/server/config.hpp
  src/server/protocol.hpp
  src/server/kv_server.hpp
  src/util/promexpo.hpp
  src/util/log.hpp
)

fail=0
for h in "${HEADERS[@]}"; do
  if awk '
    function strip(line) { sub(/\/\/.*$/, "", line); return line }
    function classify(code) {
      if (code ~ /(^|[^A-Za-z0-9_])namespace([^A-Za-z0-9_]|$)/) return "ns"
      if (code ~ /(^|[^A-Za-z0-9_])enum([^A-Za-z0-9_]|$)/) return "skip"
      if (code ~ /(^|[^A-Za-z0-9_])class([^A-Za-z0-9_]|$)/) return "nonpublic"
      if (code ~ /(^|[^A-Za-z0-9_])(struct|union)([^A-Za-z0-9_]|$)/) return "public"
      return "skip"
    }
    BEGIN { depth = 0; scope[0] = "ns"; bad = 0 }
    {
      raw = $0
      # Preprocessor lines (and their backslash continuations) are exempt.
      if (in_pp) { if (raw !~ /\\$/) in_pp = 0; prev_doc = 0; next }
      if (raw ~ /^[[:space:]]*#/) {
        if (raw ~ /\\$/) in_pp = 1
        prev_doc = 0; next
      }
      code = strip(raw)
      gsub(/[[:space:]]+$/, "", code)

      # Pure comment lines document whatever follows.
      if (raw ~ /^[[:space:]]*\/\//) { prev_doc = 1; next }
      # template<...> and attribute lines are transparent: a doc comment
      # above them still covers the declaration underneath.
      if (code ~ /^[[:space:]]*template[[:space:]<]/) { prev_cont = 0; next }

      # Access labels switch the class scope.
      if (code ~ /^[[:space:]]*(public|protected|private)[[:space:]]*:[[:space:]]*$/) {
        scope[depth] = (code ~ /public/) ? "public" : "nonpublic"
        prev_doc = 0; prev_cont = 0; next
      }

      # Candidate: a declaration-looking line in documented-required scope.
      st = scope[depth]
      if ((st == "public" || st == "ns") && !prev_cont &&
          code ~ /^[[:space:]]*[A-Za-z_~][A-Za-z0-9_:<>,*& \t~\[\]]*\(/ &&
          code !~ /=[[:space:]]*(delete|default)/ &&
          code !~ /^[[:space:]]*(if|for|while|switch|return|throw|sizeof)[[:space:](]/ &&
          code !~ /^[[:space:]]*(class|struct|enum|union|namespace|using|typedef|static_assert|friend|extern)([^A-Za-z0-9_]|$)/) {
        if (!prev_doc && raw !~ /\/\//) {
          printf "%s:%d: undocumented public symbol: %s\n", FILENAME, FNR, raw
          bad = 1
        }
      }

      # Continuation: the next line belongs to this declaration.
      prev_cont = (code ~ /[,(=]$/ || code ~ /(&&|\|\|)$/)

      # Brace tracking (first { of the line takes the line classification).
      cls = classify(code); first = 1
      n = length(code)
      for (i = 1; i <= n; i++) {
        c = substr(code, i, 1)
        if (c == "{") {
          depth++
          scope[depth] = first ? cls : "skip"
          first = 0
        } else if (c == "}" && depth > 0) {
          depth--
        }
      }
      prev_doc = 0
    }
    END { exit bad }
  ' "$h"; then
    echo "check_docs: $h OK"
  else
    fail=1
  fi
done

# Metric-catalog coverage: every counter/histogram name registered in
# telemetry.cpp must appear in DESIGN.md (the §9 metric tables), so a new
# metric cannot ship without a documentation row.
metric_fail=0
while IFS= read -r m; do
  if ! grep -qF "\`$m\`" DESIGN.md; then
    echo "check_docs: DESIGN.md missing metric doc for $m"
    metric_fail=1
  fi
done < <(awk '/constexpr Meta (kCounterMeta|kHistMeta)\[/ { in_cat = 1; next }
              in_cat && /^};/ { in_cat = 0 }
              in_cat && match($0, /\{"[^"]+"/) {
                print substr($0, RSTART + 2, RLENGTH - 3)
              }' src/util/telemetry.cpp)
# And the reverse: every metric row of the §9 tables must name a metric
# telemetry.cpp still registers, so a deleted counter cannot leave a stale
# row behind.
registered=$(awk '/constexpr Meta (kCounterMeta|kHistMeta)\[/ { in_cat = 1; next }
                  in_cat && /^};/ { in_cat = 0 }
                  in_cat && match($0, /\{"[^"]+"/) {
                    print substr($0, RSTART + 2, RLENGTH - 3)
                  }' src/util/telemetry.cpp)
while IFS= read -r m; do
  if ! grep -qxF "$m" <<< "$registered"; then
    echo "check_docs: DESIGN.md documents unregistered metric $m"
    metric_fail=1
  fi
done < <(awk '/^### Metric catalog/ { in_cat = 1; next }
              in_cat && /^### / { in_cat = 0 }
              in_cat && /^\| `/ {
                row = $0; sub(/^\| /, "", row); sub(/ \|.*$/, "", row)
                n = split(row, names, " / ")
                for (i = 1; i <= n; i++) {
                  gsub(/`/, "", names[i]); print names[i]
                }
              }' DESIGN.md)
if [[ $metric_fail -eq 0 ]]; then
  echo "check_docs: metric catalog documented OK"
else
  fail=1
fi

exit $fail
