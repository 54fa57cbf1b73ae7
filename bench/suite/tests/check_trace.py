"""Check a montage_bench trace: valid Chrome trace-event JSON with complete
("X") spans from each layer the suite traces, and a traced result that
carries the probe metrics.

usage: check_trace.py TRACE.json RESULT.json
"""
import json
import sys


def main():
    with open(sys.argv[1]) as f:
        trace = json.load(f)
    with open(sys.argv[2]) as f:
        result = json.load(f)
    events = trace["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    assert spans, "no spans"
    for e in spans:
        for key in ("name", "cat", "ts", "dur", "pid", "tid", "args"):
            assert key in e, f"span without {key}: {e}"
        assert e["dur"] >= 0, e
    cats = {e["cat"] for e in spans}
    for want in ("bench", "ds", "montage"):
        assert want in cats, f"no {want} spans (have {sorted(cats)})"
    metrics = result["workloads"][0]["metrics"]
    for want in ("montage.begin_op_ns", "nvm.persist_fence_ns", "trace.overhead_ratio"):
        assert want in metrics, f"traced result lacks {want}"
    print(f"check_trace: {len(spans)} spans over {sorted(cats)}: ok")


if __name__ == "__main__":
    main()
