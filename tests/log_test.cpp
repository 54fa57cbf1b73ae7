// Unit tests for the structured JSON line logger (src/util/log.hpp,
// DESIGN.md §14): level parsing and env validation, one-object-per-line
// emission with typed fields, the level gate, and the rate limiter's
// drop-counting ("dropped":<n> carried onto the next emitted line).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "util/env.hpp"
#include "util/log.hpp"

namespace montage {
namespace {

namespace log = util::log;

/// setenv/unsetenv RAII so env-driven tests cannot leak into each other.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::string old_;
  bool had_old_;
};

std::string slurp(std::FILE* f) {
  std::fflush(f);
  std::rewind(f);
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  return out;
}

std::size_t count_lines(const std::string& s) {
  std::size_t n = 0;
  for (char c : s) n += c == '\n';
  return n;
}

/// Capture fixture: routes the logger at a private tmpfile with the gate wide
/// open, after flushing any "dropped":<n> debt a previous test left pending
/// (the pending count is process-global and rides the next emitted line).
class LogCapture : public ::testing::Test {
 protected:
  void SetUp() override {
    log::set_level(log::Level::kDebug);
    log::set_rate_limit(0);
    scratch_ = std::tmpfile();
    ASSERT_NE(scratch_, nullptr);
    log::set_sink(scratch_);
    log::debug("drain_pending_drop_debt");
    sink_ = std::tmpfile();
    ASSERT_NE(sink_, nullptr);
    log::set_sink(sink_);
  }
  void TearDown() override {
    log::set_sink(nullptr);
    log::set_level(log::Level::kInfo);
    log::set_rate_limit(256);
    if (sink_ != nullptr) std::fclose(sink_);
    if (scratch_ != nullptr) std::fclose(scratch_);
  }

  std::FILE* sink_ = nullptr;
  std::FILE* scratch_ = nullptr;
};

TEST(Log, ParseLevelIsStrict) {
  EXPECT_EQ(log::parse_level("debug"), log::Level::kDebug);
  EXPECT_EQ(log::parse_level("info"), log::Level::kInfo);
  EXPECT_EQ(log::parse_level("warn"), log::Level::kWarn);
  EXPECT_EQ(log::parse_level("error"), log::Level::kError);
  EXPECT_EQ(log::parse_level("off"), log::Level::kOff);
  EXPECT_THROW(log::parse_level(""), std::invalid_argument);
  EXPECT_THROW(log::parse_level("INFO"), std::invalid_argument);
  EXPECT_THROW(log::parse_level("verbose"), std::invalid_argument);
  EXPECT_THROW(log::parse_level("warn "), std::invalid_argument);
}

TEST(Log, InitFromEnvAppliesKnobsAndRejectsGarbage) {
  const log::Level before = log::level();
  {
    ScopedEnv lvl("MONTAGE_LOG_LEVEL", "warn");
    ScopedEnv rate("MONTAGE_LOG_RATE", "7");
    log::init_from_env();
    EXPECT_EQ(log::level(), log::Level::kWarn);
  }
  {
    ScopedEnv lvl("MONTAGE_LOG_LEVEL", "loud");
    EXPECT_THROW(log::init_from_env(), std::invalid_argument);
  }
  {
    ScopedEnv lvl("MONTAGE_LOG_LEVEL", nullptr);
    ScopedEnv rate("MONTAGE_LOG_RATE", "many");
    EXPECT_THROW(log::init_from_env(), std::invalid_argument);
  }
  log::set_level(before);
  log::set_rate_limit(256);
}

TEST_F(LogCapture, EmitsOneJsonObjectPerLineWithTypedFields) {
  log::warn("slow_op")
      .field("verb", "set")
      .field("note", std::string_view("a\"b\\c\nd\x01"))
      .field("bytes", static_cast<uint64_t>(1234))
      .field("delta", static_cast<int64_t>(-5))
      .field("latency_ms", 1.5)
      .field("helped", true)
      .hex_field("key_hash", 0xabcull);
  const std::string out = slurp(sink_);
  ASSERT_EQ(count_lines(out), 1u) << out;
  EXPECT_EQ(out.rfind("{\"ts_ns\":", 0), 0u) << out;
  EXPECT_NE(out.find("\"level\":\"warn\""), std::string::npos);
  EXPECT_NE(out.find("\"event\":\"slow_op\""), std::string::npos);
  EXPECT_NE(out.find("\"verb\":\"set\""), std::string::npos);
  // Escaping: quote, backslash, newline, and a control byte as \u00xx.
  EXPECT_NE(out.find("\"note\":\"a\\\"b\\\\c\\nd\\u0001\""),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("\"bytes\":1234"), std::string::npos);
  EXPECT_NE(out.find("\"delta\":-5"), std::string::npos);
  EXPECT_NE(out.find("\"latency_ms\":1.500"), std::string::npos);
  EXPECT_NE(out.find("\"helped\":true"), std::string::npos);
  // hex_field renders a fixed 16-digit quoted hex string.
  EXPECT_NE(out.find("\"key_hash\":\"0000000000000abc\""), std::string::npos);
  EXPECT_EQ(out.substr(out.size() - 2), "}\n");
}

TEST_F(LogCapture, LevelGateSuppressesBelowMinimum) {
  log::set_level(log::Level::kWarn);
  EXPECT_FALSE(log::enabled(log::Level::kDebug));
  EXPECT_FALSE(log::enabled(log::Level::kInfo));
  EXPECT_TRUE(log::enabled(log::Level::kWarn));
  EXPECT_TRUE(log::enabled(log::Level::kError));
  log::info("invisible").field("k", static_cast<uint64_t>(1));
  log::warn("visible");
  log::set_level(log::Level::kOff);
  EXPECT_FALSE(log::enabled(log::Level::kError));
  log::error("also_invisible");
  const std::string out = slurp(sink_);
  EXPECT_EQ(count_lines(out), 1u) << out;
  EXPECT_NE(out.find("\"event\":\"visible\""), std::string::npos);
  EXPECT_EQ(out.find("invisible"), std::string::npos);
}

TEST_F(LogCapture, RateLimiterDropsThenReportsCarriedCount) {
  // Let any window started by an earlier test expire so the first emission
  // below opens a fresh one-second window with a zero count.
  ::usleep(1'100'000);
  log::set_rate_limit(2);
  const uint64_t dropped_before = log::dropped_total();
  for (int i = 0; i < 5; ++i) {
    log::info("burst").field("i", static_cast<uint64_t>(i));
  }
  std::string out = slurp(sink_);
  EXPECT_EQ(count_lines(out), 2u) << out;
  EXPECT_EQ(log::dropped_total() - dropped_before, 3u);
  EXPECT_EQ(out.find("\"dropped\""), std::string::npos)
      << "the drop count rides the NEXT emitted line, not the survivors";
  // After the window rolls over, the next emitted line reports the gap.
  ::usleep(1'100'000);
  log::info("after_gap");
  out = slurp(sink_);
  EXPECT_EQ(count_lines(out), 3u) << out;
  EXPECT_NE(out.find("\"event\":\"after_gap\",\"dropped\":3}"),
            std::string::npos)
      << out;
}

}  // namespace
}  // namespace montage
