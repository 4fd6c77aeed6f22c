import json

import pytest

from stablepoly import cli
from stablepoly.cli import main
from stablepoly.instances import instance_to_json


@pytest.fixture
def inst_file(tmp_path, opposed2):
    path = tmp_path / "opposed2.json"
    path.write_text(json.dumps(instance_to_json(opposed2)))
    return str(path)


@pytest.fixture
def inst4_file(tmp_path, opposed4):
    path = tmp_path / "opposed4.json"
    path.write_text(json.dumps(instance_to_json(opposed4)))
    return str(path)


def write_matching(tmp_path, name, pairs):
    path = tmp_path / name
    path.write_text(json.dumps(pairs))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_table_and_json(capsys, inst_file):
    code, out, _ = run(capsys, ["solve", inst_file])
    assert code == 0
    assert out == "a1 b1\na2 b2\n"
    code, out, _ = run(capsys, ["solve", inst_file, "--side", "b", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc == {"matching": [["a1", "b2"], ["a2", "b1"]], "stable": True}


def test_enumerate(capsys, inst_file):
    code, out, _ = run(capsys, ["enumerate", inst_file, "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 2
    code, out, _ = run(capsys, ["enumerate", inst_file])
    assert "[0] a1 b1, a2 b2" in out


def test_check_exit_codes(capsys, tmp_path, inst_file):
    good = write_matching(tmp_path, "good.json", [["a1", "b1"], ["a2", "b2"]])
    bad = write_matching(tmp_path, "bad.json", [["a1", "b1"]])
    code, out, _ = run(capsys, ["check", inst_file, good])
    assert code == 0 and out.strip() == "stable"
    code, out, _ = run(capsys, ["check", inst_file, bad, "--format", "json"])
    assert code == 1
    doc = json.loads(out)
    assert doc["stable"] is False
    assert doc["blocking"] == ["a2 b1", "a2 b2"]


@pytest.mark.parametrize(
    "pairs", [[["a1", "zz"]], [5], [["a1", "b1", "b2"]]], ids=["unknown", "scalar", "triple"]
)
def test_bad_matching_file_is_input_error(capsys, tmp_path, inst_file, pairs):
    # exit 1 means "unstable"; a malformed matching is unusable input
    bad = write_matching(tmp_path, "bad.json", pairs)
    code, out, err = run(capsys, ["check", inst_file, bad])
    assert code == 2 and out == ""
    assert err.startswith("error:")
    good = write_matching(tmp_path, "good.json", [["a1", "b1"], ["a2", "b2"]])
    for argv in (["--m1", bad, "--m2", good], ["--m1", good, "--m2", bad]):
        code, out, err = run(capsys, ["adjacency", inst_file, *argv])
        assert code == 2 and out == ""
        assert err.startswith("error:")


def test_lp_text_export(capsys, inst_file):
    code, out, _ = run(capsys, ["lp", inst_file])
    assert code == 0
    assert "x[a1 b1] + x[a2 b1] >= 1  # stability a1 b1" in out
    assert out.count("degree") == 4


def test_lp_solve_with_weights(capsys, tmp_path, inst_file):
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps({"a1 b1": "3", "a2 b2": "2", "a1 b2": "1/2"}))
    code, out, _ = run(
        capsys,
        ["lp", inst_file, "--solve", "--weights", str(weights), "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "optimal"
    assert doc["value"] == "5"
    assert doc["point"]["a1 b1"] == "1"


def test_vertices(capsys, inst_file):
    code, out, _ = run(capsys, ["vertices", inst_file, "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["counts"] == {"total": 2, "integral": 2, "fractional": 0}
    code, out, _ = run(capsys, ["vertices", inst_file])
    assert code == 0
    assert out.count("[integral]") == 2


def test_vertices_respects_bound(capsys, inst4_file):
    code, _, err = run(capsys, ["vertices", inst4_file, "--max-edges", "4"])
    assert code == 2
    assert "error:" in err


def test_adjacency_all_pairs(capsys, inst4_file):
    code, out, _ = run(capsys, ["adjacency", inst4_file, "--format", "json"])
    assert code == 0
    records = json.loads(out)
    assert len(records) == 6
    verdicts = [r["verdict"]["adjacent"] for r in records]
    assert verdicts.count(False) == 2
    off = [r["verdict"] for r in records if not r["verdict"]["adjacent"]]
    # one non-adjacent pair has mixed leanings, the other (the diagonal
    # meet/join pair) is uniform: the orientation test is one-way only
    assert sorted(v["uniformly_oriented"] for v in off) == [False, True]
    assert all(v["alternative"] for v in off)


def test_adjacency_explicit_pair(capsys, tmp_path, inst4_file):
    m1 = write_matching(
        tmp_path, "m1.json", [["a1", "b1"], ["a2", "b2"], ["a3", "b4"], ["a4", "b3"]]
    )
    m2 = write_matching(
        tmp_path, "m2.json", [["a1", "b2"], ["a2", "b1"], ["a3", "b3"], ["a4", "b4"]]
    )
    code, out, _ = run(capsys, ["adjacency", inst4_file, "--m1", m1, "--m2", m2])
    assert code == 0
    assert "not adjacent, mixed orientation" in out
    code, _, err = run(capsys, ["adjacency", inst4_file, "--m1", m1])
    assert code == 2
    assert "together" in err


def test_verify_files(capsys, inst_file, inst4_file):
    code, out, _ = run(capsys, ["verify", inst_file, inst4_file, "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc == {"checked": 2, "ok": 2, "failures": []}


def test_verify_complete_two(capsys):
    code, out, _ = run(capsys, ["verify", "--complete", "2", "--format", "json"])
    assert code == 0
    assert json.loads(out)["checked"] == 16


def test_verify_random_deterministic(capsys):
    argv = [
        "verify",
        "--random",
        "12",
        "--a",
        "3",
        "--b",
        "3",
        "--p",
        "0.6",
        "--seed",
        "5",
        "--format",
        "json",
    ]
    code, first, _ = run(capsys, argv)
    assert code == 0
    code, second, _ = run(capsys, argv)
    assert first == second


def test_verify_workers_agree(capsys, monkeypatch):
    argv = ["verify", "--complete", "2", "--format", "json"]
    _, serial, _ = run(capsys, argv)
    monkeypatch.setenv("STABLEPOLY_WORKERS", "2")
    _, parallel, _ = run(capsys, argv)
    assert serial == parallel
    monkeypatch.setenv("STABLEPOLY_WORKERS", "0")
    code, _, err = run(capsys, argv)
    assert code == 2 and "worker" in err


def test_verify_pool_shut_down_when_a_worker_raises(capsys, monkeypatch):
    shutdowns = []

    class RecordingPool(cli.ProcessPoolExecutor):
        def shutdown(self, *args, **kwargs):
            shutdowns.append(True)
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    # complete 4x4 instances have 16 columns, over the default limit of 10
    argv = ["verify", "--random", "2", "--a", "4", "--b", "4", "--p", "1", "--workers", "2"]
    code, _, err = run(capsys, argv)
    assert code == 2 and "limit is 10" in err
    assert shutdowns


def test_skip_edgeless_without_possible_edges_is_input_error(capsys):
    for command in ("verify", "generate"):
        argv = [command, "--random", "2", "--p", "0", "--skip-edgeless"]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert "skip_edgeless" in err


def test_verify_quarantine_written_when_clean(capsys, tmp_path, inst_file):
    target = tmp_path / "quarantine.json"
    code, _, _ = run(capsys, ["verify", inst_file, "--quarantine", str(target)])
    assert code == 0
    assert json.loads(target.read_text()) == []


def test_verify_needs_a_source(capsys):
    code, _, err = run(capsys, ["verify"])
    assert code == 2
    assert "give instance files" in err


def test_generate_stdout_deterministic(capsys):
    argv = ["generate", "--random", "5", "--a", "2", "--b", "2", "--seed", "9"]
    code, first, _ = run(capsys, argv)
    assert code == 0
    assert len(first.strip().splitlines()) == 5
    _, second, _ = run(capsys, argv)
    assert first == second
    for line in first.strip().splitlines():
        doc = json.loads(line)
        assert set(doc) == {"a", "b", "prefs"}


def test_generate_to_directory(capsys, tmp_path):
    out = tmp_path / "corpus"
    code, msg, _ = run(capsys, ["generate", "--complete", "1", "--out", str(out)])
    assert code == 0
    assert "wrote 1 instances" in msg
    files = sorted(out.iterdir())
    assert [f.name for f in files] == ["instance_00000.json"]
    code, _, _ = run(capsys, ["verify", str(files[0])])
    assert code == 0


def test_generate_needs_a_source(capsys):
    code, _, err = run(capsys, ["generate"])
    assert code == 2
    assert "give --complete" in err


def test_unreadable_file_is_input_error(capsys, tmp_path):
    code, _, err = run(capsys, ["solve", str(tmp_path / "missing.json")])
    assert code == 2
    assert "error:" in err
