import json
import multiprocessing
from pathlib import Path

import pytest

from stablepoly import cli, lattice, matchings
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
    # the string "ab" is not the pair (a, b), even where a and b are names
    inst = tmp_path / "inst_ab.json"
    inst.write_text(json.dumps({"a": ["a"], "b": ["b"], "prefs": {"a": ["b"], "b": ["a"]}}))
    code, out, err = run(capsys, ["check", str(inst), write_matching(tmp_path, "m_ab.json", ["ab"])])
    assert code == 2 and out == "" and err.startswith("error:")


def test_check_scans_an_unstable_matching_once(capsys, monkeypatch, tmp_path, inst_file):
    """The verdict and the blocking names come from one scan."""
    scans = []
    real = matchings._blocking_scan
    monkeypatch.setattr(matchings, "_blocking_scan", lambda *a: scans.append(a) or real(*a))
    bad = write_matching(tmp_path, "bad.json", [["a1", "b1"]])
    code, out, err = run(capsys, ["check", inst_file, bad])
    assert (code, out, err) == (1, "unstable, blocked by: a2 b1, a2 b2\n", "")
    assert len(scans) == 1


@pytest.mark.parametrize(
    "pairs",
    [
        [["a1", "zz"]],
        [5],
        [["a1", "b1", "b2"]],
        ["ab"],
        [{"a1": 1, "b1": 2}],
        [["a1", "b1"], ["a1", "b1"], ["a2", "b2"]],
    ],
    ids=["unknown", "scalar", "triple", "string", "object", "repeated"],
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


def test_adjacency_all_pairs_walks_the_lattice_once(capsys, monkeypatch, inst4_file, opposed2):
    # every walk starts from deferred acceptance; enumerating another
    # instance first leaves no lattice of an earlier test behind
    lattice.enumerate_stable(opposed2)
    real, walks = lattice.gale_shapley, []
    monkeypatch.setattr(lattice, "gale_shapley", lambda *a: walks.append(a) or real(*a))
    code, out, _ = run(capsys, ["adjacency", inst4_file, "--format", "json"])
    assert code == 0
    assert len(json.loads(out)) == 6
    assert len(walks) == 1


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
    assert doc == {"checked": 2, "ok": 2, "failures": [], "skipped": []}


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


def test_verify_workers_agree(capsys):
    argv = ["verify", "--complete", "2", "--format", "json"]
    _, serial, _ = run(capsys, argv)
    _, parallel, _ = run(capsys, argv + ["--workers", "2"])
    assert serial == parallel
    code, _, err = run(capsys, argv + ["--workers", "0"])
    assert code == 2 and "worker" in err


def _broken_verify(instance, max_edges):
    raise ValueError("broken verifier")


def test_verify_pool_shut_down_when_a_worker_raises(capsys, monkeypatch):
    shutdowns = []

    class RecordingPool(cli.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            # forked workers inherit the patched verifier below
            super().__init__(*args, mp_context=multiprocessing.get_context("fork"), **kwargs)

        def shutdown(self, *args, **kwargs):
            shutdowns.append(True)
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    # two workers even on one CPU, so the pool runs
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    # an error other than an over-limit instance still ends the sweep
    monkeypatch.setattr(cli, "verify_instance", _broken_verify)
    argv = ["verify", "--random", "2", "--a", "4", "--b", "4", "--p", "1", "--workers", "2"]
    code, _, err = run(capsys, argv)
    assert code == 2 and "broken verifier" in err
    assert shutdowns


def watch_read_ahead(monkeypatch):
    """Patch the sweep so that each tallied outcome records how many
    instances had been drawn from the stream by then, less its own
    position: the read-ahead. Returns the list of read-aheads."""
    drawn = 0
    leads = []
    stream, tally = cli._instance_stream, cli._tally

    def counting_stream(args):
        nonlocal drawn
        for inst in stream(args):
            drawn += 1
            yield inst

    def watching_tally(outcomes):
        def watched():
            for k, outcome in enumerate(outcomes):
                leads.append(drawn - k)
                yield outcome

        return tally(watched())

    monkeypatch.setattr(cli, "_instance_stream", counting_stream)
    monkeypatch.setattr(cli, "_tally", watching_tally)
    return leads


def test_verify_pool_reads_one_window_ahead(capsys, monkeypatch):
    # the pool is fed the stream a window at a time, so the parent never
    # holds more than one window of instances beyond what it has tallied
    leads = watch_read_ahead(monkeypatch)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    window = cli.WINDOW_CHUNKS * cli.CHUNKSIZE * 2
    count = 2 * window + 5
    # 4-edge draws are over --max-edges 3, so skips fall in every window
    argv = ["verify", "--random", str(count), "--a", "2", "--b", "2", "--p", "0.8",
            "--seed", "5", "--max-edges", "3", "--format", "json"]
    code, pooled, _ = run(capsys, argv + ["--workers", "2"])
    assert code == 2
    assert len(leads) == count and max(leads) <= window
    skipped = [record["index"] for record in json.loads(pooled)["skipped"]]
    assert skipped[0] < window < skipped[-1]
    assert run(capsys, argv)[:2] == (code, pooled)


def test_verify_sweep_skips_over_limit_instances(capsys, tmp_path, inst_file, inst4_file):
    # opposed4 has 8 columns, over --max-edges 4; the sweep goes on past it
    target = tmp_path / "quarantine.json"
    argv = ["verify", inst4_file, inst_file, "--max-edges", "4", "--quarantine", str(target)]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert json.loads(target.read_text()) == []
    assert out == (
        "checked 1 instances: vertex sets and stable sets agree everywhere; "
        "skipped 1 over a size limit\n"
    )
    assert err == "skipped instance 0: system has 8 columns, limit is 4\n"
    for workers in ("1", "2"):
        code, out, _ = run(capsys, argv + ["--format", "json", "--workers", workers])
        assert code == 2
        doc = json.loads(out)
        assert (doc["checked"], doc["ok"], doc["failures"]) == (1, 1, [])
        [skip] = doc["skipped"]
        assert skip["index"] == 0 and skip["reason"] == "system has 8 columns, limit is 4"
        assert skip["instance"] == json.loads(Path(inst4_file).read_text())


def test_verify_random_sweep_with_over_limit_instances(capsys, tmp_path):
    # 4x4 draws at p = 0.9 mostly exceed the 10-column vertex limit
    target = tmp_path / "q.json"
    argv = ["verify", "--random", "20", "--a", "4", "--b", "4", "--p", "0.9", "--seed", "1"]
    code, out, err = run(capsys, argv + ["--quarantine", str(target), "--format", "json"])
    assert code == 2
    assert json.loads(target.read_text()) == []
    doc = json.loads(out)
    assert doc["skipped"] and doc["failures"] == []
    assert doc["checked"] + len(doc["skipped"]) == 20
    assert err.count("skipped instance") == len(doc["skipped"])


def test_verify_sweep_skips_unreadable_files(capsys, tmp_path, inst_file):
    # a file that fails to load is a skip record naming its path; the
    # sweep goes on and still writes the quarantine file
    bad = tmp_path / "bad.json"
    doc = json.loads(Path(inst_file).read_text())
    doc["prefs"]["q"] = ["a1"]
    bad.write_text(json.dumps(doc))
    missing = str(tmp_path / "missing.json")
    target = tmp_path / "q.json"
    argv = ["verify", inst_file, str(bad), missing, "--quarantine", str(target)]
    outputs = []
    for workers in ("1", "2"):
        target.unlink(missing_ok=True)
        code, out, err = run(capsys, argv + ["--workers", workers])
        assert code == 2
        assert json.loads(target.read_text()) == []
        assert out == (
            "checked 1 instances: vertex sets and stable sets agree everywhere; "
            "skipped 2 unreadable instance files\n"
        )
        assert err.startswith("skipped instance 1: ") and "'q'" in err
        assert "skipped instance 2: " in err and "missing.json" in err
        code, out, _ = run(capsys, argv + ["--format", "json", "--workers", workers])
        assert code == 2
        outputs.append(out)
    assert outputs[0] == outputs[1]
    doc = json.loads(outputs[0])
    assert (doc["checked"], doc["ok"], doc["failures"]) == (1, 1, [])
    assert [(s["index"], s["instance"]) for s in doc["skipped"]] == [(1, str(bad)), (2, missing)]


def test_verify_workers_capped_at_cpu_count(capsys, monkeypatch):
    # the fake pool records its size and maps serially, so no process
    # is started however large the requested count
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    # one window of three workers and a few more, so the read-ahead
    # shows which count sized the window
    window = cli.WINDOW_CHUNKS * cli.CHUNKSIZE * 3
    argv = ["verify", "--random", str(window + 5), "--a", "2", "--b", "2",
            "--seed", "5", "--format", "json"]
    code, serial, _ = run(capsys, argv)
    leads = watch_read_ahead(monkeypatch)
    assert run(capsys, argv + ["--workers", "1000000"])[:2] == (code, serial)
    assert sizes == [3]
    assert len(leads) == window + 5 and max(leads) == window
    # one CPU leaves nothing to share: the sweep runs without a pool
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)
    assert run(capsys, argv + ["--workers", "8"])[:2] == (code, serial)
    assert sizes == [3]


def test_skip_edgeless_without_possible_edges_is_input_error(capsys):
    for command in ("verify", "generate"):
        argv = [command, "--random", "2", "--p", "0", "--skip-edgeless"]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert "skip_edgeless" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--random", "-1"], "--random needs a count of at least 0, got -1"),
        (["generate", "--random", "-2"], "--random needs a count of at least 0, got -2"),
        (["verify", "--random", "3", "--a", "-1"], "a-side size must be at least 0, got -1"),
        (["generate", "--random", "3", "--b", "-1"], "b-side size must be at least 0, got -1"),
        (["verify", "--random", "3", "--p", "-0.5"], "edge probability must lie in [0, 1], got -0.5"),
        (["generate", "--random", "3", "--p", "1.5"], "edge probability must lie in [0, 1], got 1.5"),
    ],
    ids=["verify-random", "generate-random", "a", "b", "p-negative", "p-above-one"],
)
def test_bad_random_source_flag_is_input_error(capsys, argv, message):
    assert run(capsys, argv) == (2, "", f"error: {message}\n")


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


def test_two_sources_are_input_error(capsys, inst_file):
    for argv, named in (
        (["verify", inst_file, "--complete", "2"], "instance files and --complete"),
        (["verify", "--complete", "2", "--random", "3"], "--complete and --random"),
        (["generate", "--complete", "1", "--random", "3"], "--complete and --random"),
    ):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "mutually exclusive" in err and named in err


def test_generate_needs_a_source(capsys):
    code, _, err = run(capsys, ["generate"])
    assert code == 2
    assert "give --complete" in err


def test_name_with_whitespace_is_input_error(capsys, tmp_path):
    path = tmp_path / "spaced.json"
    path.write_text(json.dumps({"a": ["x 1"], "b": ["y"], "prefs": {"x 1": ["y"], "y": ["x 1"]}}))
    code, out, err = run(capsys, ["lp", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "whitespace" in err


def test_unreadable_file_is_input_error(capsys, tmp_path):
    code, _, err = run(capsys, ["solve", str(tmp_path / "missing.json")])
    assert code == 2
    assert "error:" in err
    # a preference entry that is a list or an object is unusable input
    path = tmp_path / "bad.json"
    for entry in (["b1"], {"b1": 1}):
        path.write_text(json.dumps({"a": ["a1"], "b": ["b1"], "prefs": {"a1": [entry], "b1": ["a1"]}}))
        code, out, err = run(capsys, ["enumerate", str(path)])
        assert code == 2 and out == ""
        assert err.startswith("error:") and "not a node name" in err
