import json

from diff_documents import main


def document(statuses, **values):
    checks = [{"name": name, "status": status, "values": dict(values)} for name, status in statuses.items()]
    return {"command": "verify", "checks": checks, "all_pass": all(s == "PASS" for s in statuses.values())}


def write_tree(root, files):
    root.mkdir()
    for name, (code, body) in files.items():
        text = body if isinstance(body, str) else json.dumps(body, indent=2)
        (root / name).write_text(f"exit {code}\n{text}\n", encoding="utf-8")
    return str(root)


def test_same_trees_report_nothing(tmp_path, capsys):
    files = {"001_verify.txt": (0, document({"a": "PASS"}, x=1.0)), "000_build.txt": (0, "text\n")}
    assert main([write_tree(tmp_path / "a", files), write_tree(tmp_path / "b", files)]) == 0
    out = capsys.readouterr().out
    assert "2 documents paired" in out and "exit-code changes: 0" in out and "fields moved: 0" in out


def test_field_moves_are_counted_per_check_and_field(tmp_path, capsys):
    a = {f"00{k}_verify.txt": (0, document({"a": "PASS", "b": "PASS"}, x=1.0, y=[1, 2])) for k in range(3)}
    b = dict(a)
    b["000_verify.txt"] = (0, document({"a": "PASS", "b": "PASS"}, x=2.0, y=[1, 2]))
    b["001_verify.txt"] = (0, document({"a": "PASS", "b": "PASS"}, x=2.0, y=[1, 3]))
    assert main([write_tree(tmp_path / "a", a), write_tree(tmp_path / "b", b)]) == 0
    moved = capsys.readouterr().out.split("fields moved: 4\n")[1].splitlines()
    assert moved == [
        "  a.values.x: 2 documents",
        "  a.values.y: 1 documents",
        "  b.values.x: 2 documents",
        "  b.values.y: 1 documents",
    ]


def test_exit_code_and_status_changes_exit_one(tmp_path, capsys):
    a = {"001_verify.txt": (0, document({"a": "PASS"})), "002_build.txt": (0, "text")}
    b = {"001_verify.txt": (1, document({"a": "FAIL"})), "002_build.txt": (0, "other text")}
    assert main([write_tree(tmp_path / "a", a), write_tree(tmp_path / "b", b)]) == 1
    out = capsys.readouterr().out
    assert "exit-code changes: 1\n  001_verify.txt: exit 0 -> exit 1\n" in out
    assert "check-status changes: 1\n  001_verify.txt [a]: PASS -> FAIL\n" in out
    assert "(document).all_pass: 1 documents" in out and "(document): 1 documents" in out


def test_a_file_or_check_in_one_tree_only_exits_one(tmp_path, capsys):
    a = {"001_verify.txt": (0, document({"a": "PASS", "b": "PASS"})), "002_verify.txt": (0, document({}))}
    b = {"001_verify.txt": (0, document({"a": "PASS"}))}
    assert main([write_tree(tmp_path / "a", a), write_tree(tmp_path / "b", b)]) == 1
    out = capsys.readouterr().out
    assert "files or checks in one tree only: 2" in out
    assert f"only in {tmp_path / 'a'}: 002_verify.txt" in out
    assert f"001_verify.txt [b]: only in {tmp_path / 'a'}" in out
