"""Chrome trace-event files (the --trace= output). They carry no
schema id: tepic_reports recognises them by their "traceEvents"
array. Timestamps are wall-clock data, so there is no --compare
contract.
"""

from tepic_reports import usage_error

SCHEMA = "chrome-trace"
comparable = None


def validate(path, doc):
    for i, ev in enumerate(doc["traceEvents"]):
        for key in ("name", "ph", "ts", "pid", "tid"):
            if not isinstance(ev, dict) or key not in ev:
                usage_error(f"{path}: event {i} missing '{key}'")
        if ev["ph"] == "X" and "dur" not in ev:
            usage_error(f"{path}: complete event {i} missing 'dur'")


def summary(doc):
    return f"{len(doc['traceEvents'])} trace events"
