#!/usr/bin/env python3
"""Validate a dsegen/dsecoord JSONL run journal against scripts/runlog.schema.json.

Usage: validate_runlog.py [--require TYPE[,TYPE...]] <runlog.jsonl> [schema.json]

Checks, per line: the record parses as JSON, its type is known, every
required field is present with the schema's JSON type, config.apps items
match the nested schema, and each app's stalls array has one entry per
stall class declared in the meta record. Whole-file checks: exactly one
meta (first line) and one summary (last line), and the summary's
journal_lines count matches the file. --require additionally fails the
run unless every listed record type appears at least once (smoke tests
use it to pin that fleet journals carry lease and util records).
"""

import json
import os
import sys

JSON_TYPES = {
    "string": str,
    "number": (int, float),
    "boolean": bool,
    "array": list,
    "object": dict,
}


def check_fields(rec, spec, where, errors):
    for field in spec["required"]:
        if field not in rec:
            errors.append(f"{where}: missing required field {field!r}")
    for field, value in rec.items():
        want = spec["types"].get(field)
        if want is None:
            errors.append(f"{where}: unknown field {field!r}")
        elif not isinstance(value, JSON_TYPES[want]) or isinstance(value, bool) != (want == "boolean"):
            errors.append(f"{where}: field {field!r} is {type(value).__name__}, want {want}")


def main():
    argv = sys.argv[1:]
    required_types = []
    if argv and argv[0] == "--require":
        if len(argv) < 2:
            sys.exit(__doc__.strip())
        required_types = [t for t in argv[1].split(",") if t]
        argv = argv[2:]
    if len(argv) not in (1, 2):
        sys.exit(__doc__.strip())
    log_path = argv[0]
    if len(argv) == 2:
        schema_path = argv[1]
    else:
        schema_path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "runlog.schema.json")
    with open(schema_path) as f:
        schema = json.load(f)["records"]
    for t in required_types:
        if t not in schema:
            sys.exit(f"validate_runlog: --require {t!r} is not a schema record type")

    errors = []
    counts = {}
    n_classes = None
    summary_lines = None
    lines = 0
    last_type = None
    with open(log_path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                errors.append(f"line {lineno}: empty line")
                continue
            lines += 1
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                errors.append(f"line {lineno}: bad JSON: {e}")
                continue
            typ = rec.get("type")
            spec = schema.get(typ)
            if spec is None:
                errors.append(f"line {lineno}: unknown record type {typ!r}")
                continue
            counts[typ] = counts.get(typ, 0) + 1
            last_type = typ
            check_fields(rec, spec, f"line {lineno} ({typ})", errors)
            if typ == "meta":
                if lineno != 1:
                    errors.append(f"line {lineno}: meta record not first")
                n_classes = len(rec.get("stall_classes", []))
            elif typ == "config":
                for i, app in enumerate(rec.get("apps", [])):
                    where = f"line {lineno} apps[{i}]"
                    if not isinstance(app, dict):
                        errors.append(f"{where}: not an object")
                        continue
                    check_fields(app, spec["apps_item"], where, errors)
                    stalls = app.get("stalls")
                    if n_classes is not None and isinstance(stalls, list) and len(stalls) != n_classes:
                        errors.append(f"{where}: {len(stalls)} stall entries, meta declares {n_classes}")
            elif typ == "summary":
                summary_lines = rec.get("journal_lines")

    for t in required_types:
        if counts.get(t, 0) == 0:
            errors.append(f"no {t!r} records (required via --require)")

    if counts.get("meta", 0) != 1:
        errors.append(f"{counts.get('meta', 0)} meta records, want exactly 1")
    if counts.get("summary", 0) != 1:
        errors.append(f"{counts.get('summary', 0)} summary records, want exactly 1")
    elif last_type != "summary":
        errors.append("summary record is not the last line")
    elif isinstance(summary_lines, (int, float)) and summary_lines != lines - 1:
        # The summary counts every line written before itself.
        errors.append(f"summary says {summary_lines} journal lines, file has {lines - 1} before it")

    if errors:
        for e in errors[:25]:
            print(f"validate_runlog: {e}", file=sys.stderr)
        if len(errors) > 25:
            print(f"validate_runlog: ... and {len(errors) - 25} more", file=sys.stderr)
        sys.exit(1)
    print(f"validate_runlog: OK ({lines} lines: {counts})")


if __name__ == "__main__":
    main()
