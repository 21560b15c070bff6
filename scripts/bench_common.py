"""Loads bench --json documents for the scripts that read them
(validate_bench.py, golden_diff.py); stdlib only.

The bench documents are self-describing (bench name, schema_version,
git_sha, build_type, threads header from obs::exportHeader):
validate_bench.py picks its checks by the bench name, and
golden_diff.py drops the header fields a rerun may change.
"""

import json
import sys


def load_doc(path, tool):
    """Parse the JSON document at `path`.

    Returns the parsed dict, or None after printing a `tool`-prefixed
    message to stderr (unreadable file, bad JSON, non-object root).
    """
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"{tool}: cannot read {path}: {e}", file=sys.stderr)
        return None
    if not isinstance(doc, dict):
        print(f"{tool}: {path}: document is not a JSON object",
              file=sys.stderr)
        return None
    return doc
