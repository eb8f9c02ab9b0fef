"""Summarize how two `dump_documents.py` trees differ, document by document.

    python tests/diff_documents.py OUT_A OUT_B

Files are paired by name. The tool prints every exit-code change, every
check-status change, and, for each (check, field), how many documents moved
in it. A field is a path of keys inside one check ("values.min_value"); a
list is one field. Fields outside the checks, and documents that are not
JSON, count under "(document)". It exits 1 if any exit code or status
changed, or a file or check is in one tree only, and 0 otherwise.
"""

import json
import sys
from collections import Counter
from pathlib import Path

DOCUMENT = "(document)"


def read(path: Path) -> tuple[str, object]:
    """The exit-code line and the parsed document (its text if not JSON)."""
    code, _, body = path.read_text(encoding="utf-8").partition("\n")
    try:
        return code, json.loads(body)
    except json.JSONDecodeError:
        return code, body


def leaves(node, prefix: str = "") -> dict[str, object]:
    """Every non-dict value under `node`, keyed by its dotted path."""
    if not isinstance(node, dict):
        return {prefix: node}
    out = {}
    for key, value in node.items():
        out.update(leaves(value, f"{prefix}.{key}" if prefix else key))
    return out


def split(doc) -> dict[str, dict[str, object]]:
    """Each check's fields by check name, the rest under DOCUMENT."""
    if not isinstance(doc, dict):
        return {DOCUMENT: {"": doc}}
    rest = {k: v for k, v in doc.items() if k != "checks"}
    parts = {DOCUMENT: leaves(rest)}
    for check in doc.get("checks", []):
        parts[check["name"]] = leaves({k: v for k, v in check.items() if k != "name"})
    return parts


def compare(dir_a: Path, dir_b: Path) -> tuple[dict[str, list[str]], Counter, int]:
    """The changes that break the contract, by kind; the documents moved per
    (check, field); and the number of documents paired."""
    names_a = {p.name for p in dir_a.iterdir()}
    names_b = {p.name for p in dir_b.iterdir()}
    breaks = {"exit-code changes": [], "check-status changes": [], "files or checks in one tree only": []}
    one_tree = breaks["files or checks in one tree only"]
    one_tree += [f"only in {dir_a}: {n}" for n in sorted(names_a - names_b)]
    one_tree += [f"only in {dir_b}: {n}" for n in sorted(names_b - names_a)]
    moves = Counter()
    for name in sorted(names_a & names_b):
        (code_a, doc_a), (code_b, doc_b) = read(dir_a / name), read(dir_b / name)
        if code_a != code_b:
            breaks["exit-code changes"].append(f"{name}: {code_a} -> {code_b}")
        parts_a, parts_b = split(doc_a), split(doc_b)
        for check in sorted(parts_a.keys() | parts_b.keys()):
            fields_a, fields_b = parts_a.get(check), parts_b.get(check)
            if fields_a is None or fields_b is None:
                one_tree.append(f"{name} [{check}]: only in {dir_a if fields_b is None else dir_b}")
                continue
            if fields_a.get("status") != fields_b.get("status"):
                breaks["check-status changes"].append(
                    f"{name} [{check}]: {fields_a.get('status')} -> {fields_b.get('status')}")
            moves.update((check, f) for f in fields_a.keys() | fields_b.keys() if fields_a.get(f) != fields_b.get(f))
    return breaks, moves, len(names_a & names_b)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: diff_documents.py OUT_A OUT_B", file=sys.stderr)
        return 2
    breaks, moves, paired = compare(Path(argv[0]), Path(argv[1]))
    print(f"{paired} documents paired")
    for kind, lines in breaks.items():
        print(f"{kind}: {len(lines)}")
        for line in lines:
            print(f"  {line}")
    print(f"fields moved: {len(moves)}")
    for (check, field), count in sorted(moves.items()):
        print(f"  {check}.{field}: {count} documents" if field else f"  {check}: {count} documents")
    return 1 if any(breaks.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
