import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import tuckersearch.cli as cli_module
from tuckersearch import verify as verify_mod
from tuckersearch.cli import (EXIT_BUDGET, EXIT_FAIL, EXIT_INPUT,
                              EXIT_NO_DIRECTION, EXIT_OK, main)
from tuckersearch.objective import grad_loss, grad_reg, load_point, objective
from tuckersearch.tensor_core import (hosvd, load_tensor,
                                      multilinear_transform, norm_f,
                                      save_tensor_binary, save_tensor_json)
from tuckersearch.verify import run_suite, suite_to_json


def gen(tmp_path, name="T.json", r=2, d=4, seed=3, extra=()):
    path = tmp_path / name
    rc = main(["generate", "--rank", str(r), "--dim", str(d),
               "--seed", str(seed), "--out", str(path), *extra])
    assert rc == EXIT_OK
    return path


# ---------------------------------------------------------------------------
# generate


def test_generate_writes_unit_tensor_with_metadata(tmp_path):
    path = gen(tmp_path, d=5, seed=11)
    doc = json.loads(path.read_text())
    assert doc["meta"] == {"r": 2, "d": 5, "seed": 11, "noise": 0.0,
                           "exact": True}
    T, _ = load_tensor(path)
    assert T.shape == (5, 5, 5)
    assert abs(norm_f(T) - 1.0) < 1e-12


def test_generate_is_byte_reproducible(tmp_path):
    a = gen(tmp_path, "a.json", seed=5)
    b = gen(tmp_path, "b.json", seed=5)
    assert a.read_bytes() == b.read_bytes()
    c = gen(tmp_path, "c.json", seed=6)
    assert a.read_bytes() != c.read_bytes()


def test_generate_exact_instance_is_hosvd_recoverable(tmp_path):
    T, _ = load_tensor(gen(tmp_path, r=2, d=6, seed=0))
    p = hosvd(T, 2)
    fit = multilinear_transform(p.S, p.A, p.B, p.C)
    assert norm_f(fit - T) ** 2 <= 1e-10


def test_generate_noise_is_flagged_and_sized(tmp_path):
    path = gen(tmp_path, extra=("--noise", "0.05"))
    doc = json.loads(path.read_text())
    assert doc["meta"]["exact"] is False
    assert doc["meta"]["noise"] == 0.05
    clean, _ = load_tensor(gen(tmp_path, "clean.json"))
    noisy, _ = load_tensor(path)
    assert abs(norm_f(noisy - clean) - 0.05) < 1e-12


@pytest.mark.parametrize("noise", ["nan", "inf", "-0.5"])
def test_generate_rejects_noise_that_is_not_finite_and_nonnegative(
        tmp_path, capsys, noise):
    # a NaN noise once wrote the clean tensor with "noise": NaN in its meta,
    # and an infinite one wrote Infinity entries that decompose rejects
    path = tmp_path / "x.json"
    rc = main(["generate", "--rank", "2", "--dim", "3", "--noise", noise,
               "--out", str(path)])
    assert rc == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: noise must be")
    assert not path.exists()


def test_generate_rejects_a_negative_seed(tmp_path, capsys):
    # numpy refuses a negative seed; the CLI once died in its traceback
    # with exit 1, the code of a failed verification
    path = tmp_path / "x.json"
    rc = main(["generate", "--rank", "2", "--dim", "3", "--seed", "-1",
               "--out", str(path)])
    assert rc == EXIT_INPUT
    assert capsys.readouterr().err == "error: seed must be nonnegative\n"
    assert not path.exists()


def test_generate_rejects_rank_above_dim(tmp_path, capsys):
    rc = main(["generate", "--rank", "5", "--dim", "3",
               "--out", str(tmp_path / "x.json")])
    assert rc == EXIT_INPUT
    assert "exceeds" in capsys.readouterr().err


def test_generate_binary_writes_sidecar_meta(tmp_path):
    path = tmp_path / "T.bin"
    rc = main(["generate", "--rank", "2", "--dim", "4", "--seed", "1",
               "--out", str(path), "--binary"])
    assert rc == EXIT_OK
    assert load_tensor(path)[0].shape == (4, 4, 4)
    meta = json.loads((tmp_path / "T.bin.meta.json").read_text())
    assert meta["r"] == 2 and meta["exact"] is True


def test_generate_into_a_missing_directory_is_input_error(tmp_path, capsys):
    for extra in ((), ("--binary",)):
        rc = main(["generate", "--rank", "2", "--dim", "3",
                   "--out", str(tmp_path / "missing" / "T.json"), *extra])
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error:") and "No such file" in err


# ---------------------------------------------------------------------------
# decompose


def test_decompose_converges_and_summary_matches_saved_factors(tmp_path):
    T_path = gen(tmp_path, d=5, seed=2)
    out = tmp_path / "run"
    rc = main(["decompose", str(T_path), "--rank", "2", "--seed", "1",
               "--out", str(out)])
    assert rc == EXIT_OK
    summary = json.loads((tmp_path / "run.summary.json").read_text())
    assert summary["status"] == "converged"
    p = load_point(tmp_path / "run.factors.json")
    rep = objective(p, load_tensor(T_path)[0])
    assert abs(summary["f"] - rep.f) <= 1e-12
    assert abs(summary["L"] - rep.L) <= 1e-12
    assert summary["f"] <= 1e-4
    lines = (tmp_path / "run.trace.jsonl").read_text().splitlines()
    records = [json.loads(s) for s in lines]
    assert records[0]["step_kind"] == "init"
    assert all("wall_time" not in rec for rec in records)


def test_decompose_outputs_are_byte_identical_across_runs(tmp_path):
    T_path = gen(tmp_path, d=4, seed=9)
    out = tmp_path / "run"
    names = ["run.factors.json", "run.trace.jsonl", "run.summary.json"]
    args = ["decompose", str(T_path), "--rank", "2", "--seed", "4",
            "--out", str(out)]
    assert main(args) == EXIT_OK
    first = {n: (tmp_path / n).read_bytes() for n in names}
    assert main(args) == EXIT_OK
    second = {n: (tmp_path / n).read_bytes() for n in names}
    assert first == second
    # the time-dependent part lives in its own file, not compared
    meta = json.loads((tmp_path / "run.meta.json").read_text())
    assert set(meta) == {"wall_time", "written_at"}


def test_decompose_rank_falls_back_to_tensor_metadata(tmp_path):
    T_path = gen(tmp_path, r=2, d=4, seed=7)
    rc = main(["decompose", str(T_path), "--out", str(tmp_path / "m")])
    assert rc == EXIT_OK
    summary = json.loads((tmp_path / "m.summary.json").read_text())
    assert summary["config"]["r"] == 2


def test_decompose_requires_rank_when_metadata_lacks_it(tmp_path, capsys):
    path = tmp_path / "bare.json"
    save_tensor_json(path, np.zeros((3, 3, 3)))
    rc = main(["decompose", str(path), "--out", str(tmp_path / "x")])
    assert rc == EXIT_INPUT
    assert "rank" in capsys.readouterr().err


def test_decompose_reads_the_tensor_file_once(tmp_path, monkeypatch):
    # without --rank the rank comes from the metadata of the same parse
    import builtins
    T_path = gen(tmp_path, r=2, d=4, seed=7)
    opened, parsed = [], []
    real_open, real_loads = builtins.open, json.loads

    def recording_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    def recording_loads(s, *args, **kwargs):
        parsed.append(len(s))
        return real_loads(s, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording_open)
    monkeypatch.setattr(json, "loads", recording_loads)
    rc = main(["decompose", str(T_path), "--out", str(tmp_path / "once")])
    monkeypatch.undo()
    assert rc == EXIT_OK
    assert opened.count(str(T_path)) == 1
    assert parsed == [T_path.stat().st_size]
    summary = json.loads((tmp_path / "once.summary.json").read_text())
    assert summary["config"]["r"] == 2


def test_decompose_takes_no_rank_from_binary_or_malformed_metadata(
        tmp_path, capsys):
    binary = gen(tmp_path, "T.bin", extra=("--binary",))
    malformed = tmp_path / "malformed.json"
    save_tensor_json(malformed, load_tensor(binary)[0], meta=None)
    doc = json.loads(malformed.read_text())
    doc["meta"] = [2]
    malformed.write_text(json.dumps(doc))
    for path in (binary, malformed):
        rc = main(["decompose", str(path), "--out", str(tmp_path / "x")])
        assert rc == EXIT_INPUT
        assert "rank" in capsys.readouterr().err


def test_decompose_zero_tensor_is_input_error(tmp_path, capsys):
    path = tmp_path / "zero.json"
    save_tensor_json(path, np.zeros((3, 3, 3)))
    rc = main(["decompose", str(path), "--rank", "2",
               "--out", str(tmp_path / "z")])
    assert rc == EXIT_INPUT
    assert "zero norm" in capsys.readouterr().err
    assert not (tmp_path / "z.summary.json").exists()


def test_decompose_input_errors(tmp_path, capsys):
    assert main(["decompose", str(tmp_path / "missing.json"),
                 "--rank", "2"]) == EXIT_INPUT
    bad = tmp_path / "flat.json"
    save_tensor_json(bad, np.zeros((2, 3, 4)))
    assert main(["decompose", str(bad), "--rank", "2"]) == EXIT_INPUT
    assert "cubical" in capsys.readouterr().err
    T_path = gen(tmp_path)
    assert main(["decompose", str(T_path), "--rank", "9"]) == EXIT_INPUT
    # the dimension comes from the tensor file alone: a config naming it
    # is an unknown key, and --dim a usage error
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"r": 2, "d": 4}))
    capsys.readouterr()
    assert main(["decompose", str(T_path), "--config", str(config)]) \
        == EXIT_INPUT
    assert "unknown config keys ['d']" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["decompose", str(T_path), "--rank", "2", "--dim", "4"])
    assert exc.value.code == EXIT_INPUT


def test_decompose_into_a_missing_directory_fails_before_the_search(
        tmp_path, monkeypatch, capsys):
    import tuckersearch.cli as cli_module
    T_path = gen(tmp_path)
    calls = []
    monkeypatch.setattr(cli_module, "run", lambda *a: calls.append(a))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"out": 5}))
    for extra, message in (
            (["--out", str(tmp_path / "missing" / "run")], "does not exist"),
            (["--config", str(config)], "path prefix")):
        rc = main(["decompose", str(T_path), "--rank", "2", *extra])
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
    assert calls == []
    assert not (tmp_path / "missing").exists()


def test_decompose_config_file_with_cli_precedence(tmp_path):
    T_path = gen(tmp_path, d=4, seed=1)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"r": 2, "seed": 5, "budget": 30_000,
                                    "out": str(tmp_path / "cfgrun")}))
    rc = main(["decompose", str(T_path), "--config", str(cfg_path),
               "--seed", "7"])
    assert rc == EXIT_OK
    summary = json.loads((tmp_path / "cfgrun.summary.json").read_text())
    assert summary["config"]["seed"] == 7
    assert summary["config"]["budget"] == 30_000


def test_decompose_rejects_bad_config_file(tmp_path, capsys):
    T_path = gen(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    # sigma and delta_points were fields once and are fixed constants now
    for doc in ({"r": 2, "typo_field": 1}, {"r": 2, "mode": "theory"},
                {"r": 2, "sosp_eval_cap": 3000}, {"r": 2, "sigma": 0.05},
                {"r": 2, "delta_points": 13}):
        cfg_path.write_text(json.dumps(doc))
        rc = main(["decompose", str(T_path), "--config", str(cfg_path),
                   "--out", str(tmp_path / "x")])
        assert rc == EXIT_INPUT
        assert "unknown config keys" in capsys.readouterr().err
    assert not (tmp_path / "x.summary.json").exists()


def test_decompose_rejects_bad_config_values(tmp_path, monkeypatch, capsys):
    # a run cannot use any of these: each is an input error before the
    # search starts, not a misleading status, a burned budget or a
    # traceback
    import tuckersearch.cli as cli_module
    calls = []
    monkeypatch.setattr(cli_module, "run", lambda *a: calls.append(a))
    T_path = gen(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    for text in ('{"lam": NaN}', '{"epsilon": -Infinity}', '{"r": 2.5}',
                 '{"budget": 10.5}', '{"init": "random:inf"}',
                 '{"init": "random:nan"}', '{"init": 5}'):
        cfg_path.write_text(text)
        rc = main(["decompose", str(T_path), "--config", str(cfg_path),
                   "--out", str(tmp_path / "x")])
        assert rc == EXIT_INPUT, text
        assert capsys.readouterr().err.startswith("error: ")
    assert calls == []
    assert not (tmp_path / "x.summary.json").exists()


def test_decompose_rejects_malformed_tensor_files(tmp_path, capsys):
    docs = ({"dims": 3, "data": [0.0, 0.0, 0.0]},
            {"dims": [1, 1, None], "data": [0.0]},
            {"dims": [1, 1, float("inf")], "data": [0.0]},
            {"dims": [1, 1, 1], "data": {"x": 0.0}},
            {"dims": [1, 1, 1], "data": ["x"]},
            {"dims": [2, 2, 2], "data": [0.5] * 8, "meta": {"r": "two"}})
    for i, doc in enumerate(docs):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(doc))
        rc = main(["decompose", str(path), "--out", str(tmp_path / "x")])
        assert rc == EXIT_INPUT, doc
        assert capsys.readouterr().err.startswith("error: ")
    # neither format, an empty file, and a binary file cut inside its
    # 28-byte header: the error line names the file
    for name, blob, message in (
            ("nope.bin", b"NOPE" + b"\0" * 60, "not a TKR1 binary or JSON"),
            ("empty.json", b"", "not a TKR1 binary or JSON"),
            ("short.bin", b"TKR1" + b"\0" * 16, "truncated header")):
        path = tmp_path / name
        path.write_bytes(blob)
        rc = main(["decompose", str(path), "--rank", "2",
                   "--out", str(tmp_path / "x")])
        assert rc == EXIT_INPUT, name
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and message in err, err
    assert not (tmp_path / "x.summary.json").exists()


def test_decompose_rejects_boolean_dims(tmp_path, capsys):
    # int(True) == True, so a JSON true once passed as a dimension of 1
    # and the file decomposed as a 1 x 1 x 1 tensor; the error line names
    # the file
    for dims in ([True, True, True], [1, True, 1]):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps({"dims": dims, "data": [1.0]}))
        rc = main(["decompose", str(path), "--rank", "1",
                   "--out", str(tmp_path / "x")])
        assert rc == EXIT_INPUT, dims
        assert capsys.readouterr().err.startswith(
            f"error: {path}: dims must be ")
        assert [f.name for f in tmp_path.iterdir()] == ["bool.json"]


def test_decompose_names_the_file_of_non_finite_data(tmp_path, capsys):
    # the payload checks of both formats name the file, as the header and
    # parse errors do
    T = np.ones((2, 2, 2))
    T[1, 0, 1] = np.inf
    json_path = tmp_path / "inf.json"
    save_tensor_json(json_path, T)
    bin_path = tmp_path / "inf.bin"
    save_tensor_binary(bin_path, T)
    for path in (json_path, bin_path):
        rc = main(["decompose", str(path), "--rank", "1",
                   "--out", str(tmp_path / "x")])
        assert rc == EXIT_INPUT, path.name
        assert capsys.readouterr().err == (
            f"error: {path}: tensor data contains non-finite entries\n")
    assert sorted(f.name for f in tmp_path.iterdir()) == ["inf.bin",
                                                          "inf.json"]


def test_decompose_config_round_trips_through_summary(tmp_path):
    # the summary's config object is a config file that reruns the search
    T_path = gen(tmp_path, d=4, seed=5)
    assert main(["decompose", str(T_path), "--rank", "2", "--seed", "3",
                 "--out", str(tmp_path / "a")]) == EXIT_OK
    config = json.loads((tmp_path / "a.summary.json").read_text())["config"]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["decompose", str(T_path), "--config", str(cfg_path),
                 "--out", str(tmp_path / "b")]) == EXIT_OK
    for name in ("factors.json", "trace.jsonl", "summary.json"):
        assert ((tmp_path / f"a.{name}").read_bytes()
                == (tmp_path / f"b.{name}").read_bytes())


def test_decompose_usage_errors_are_input_errors(tmp_path, capsys):
    # argparse's own exit code, 2, would read as an exhausted budget; a
    # removed flag or a non-integer rank is an input error
    T_path = gen(tmp_path)
    for extra in (["--delta-points", "9"], ["--rank", "two"]):
        with pytest.raises(SystemExit) as exc:
            main(["decompose", str(T_path), *extra,
                  "--out", str(tmp_path / "x")])
        assert exc.value.code == EXIT_INPUT, extra
        err = capsys.readouterr().err
        assert "error: " in err and extra[0] in err, err
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--help"])
    assert exc.value.code == EXIT_OK
    help_text = capsys.readouterr().out
    for flag in ("--samples-per-block", "--delta-span", "--delta-points",
                 "--dim"):
        assert flag not in help_text
    assert not (tmp_path / "x.summary.json").exists()


def test_decompose_budget_exit_code(tmp_path):
    T_path = gen(tmp_path, d=5, seed=8)
    rc = main(["decompose", str(T_path), "--rank", "2", "--budget", "10",
               "--out", str(tmp_path / "b")])
    assert rc == EXIT_BUDGET
    summary = json.loads((tmp_path / "b.summary.json").read_text())
    assert summary["status"] == "budget"


def test_decompose_no_direction_exit_code(tmp_path):
    # noise of norm 5e-2 puts the floor of the fit (about |N|^2 = 2.5e-3)
    # far above the default epsilon: the search stalls at a point with no
    # improving direction above the acceptance threshold
    T_path = gen(tmp_path, d=4, seed=2, extra=("--noise", "5e-2"))
    rc = main(["decompose", str(T_path), "--rank", "2",
               "--out", str(tmp_path / "n")])
    assert rc == EXIT_NO_DIRECTION
    summary = json.loads((tmp_path / "n.summary.json").read_text())
    assert summary["status"] == "no-direction"
    assert 1e-4 < summary["f"] <= 5e-3


def test_decompose_rejects_epsilon_below_the_floor(tmp_path, capsys):
    # below EPSILON_FLOOR an exact target would end in a misleading
    # no-direction near f = 1e-12, so such an epsilon is an input error
    # before any search; the floor itself is accepted
    T_path = gen(tmp_path)
    rc = main(["decompose", str(T_path), "--rank", "2",
               "--epsilon", "1e-14", "--out", str(tmp_path / "x")])
    assert rc == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: epsilon must be in "
                                              "[1e-12, 1)")
    assert not (tmp_path / "x.summary.json").exists()
    rc = main(["decompose", str(T_path), "--rank", "2",
               "--epsilon", "1e-12", "--out", str(tmp_path / "y")])
    assert rc == EXIT_OK


def test_decompose_non_finite_run_is_an_input_error(tmp_path, capsys):
    # entries of 1e200 overflow the target's norm, and with it the
    # objective: the run ends with an explicit status before any search,
    # not a traceback and the exit code of a failed check
    T_path = tmp_path / "huge.json"
    save_tensor_json(T_path, np.full((2, 2, 2), 1e200), {"r": 1})
    with pytest.warns(RuntimeWarning, match="overflow"):
        rc = main(["decompose", str(T_path), "--out", str(tmp_path / "x")])
    assert rc == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: target norm is not "
                                              "finite")
    assert not (tmp_path / "x.summary.json").exists()


def test_decompose_hosvd_init(tmp_path):
    T_path = gen(tmp_path, d=5, seed=4)
    rc = main(["decompose", str(T_path), "--rank", "2", "--init", "hosvd",
               "--out", str(tmp_path / "h")])
    assert rc == EXIT_OK
    summary = json.loads((tmp_path / "h.summary.json").read_text())
    assert summary["config"]["init"] == "hosvd"
    assert summary["grad_evals"] < 1000


def test_decompose_restarts_suffix_outputs(tmp_path):
    T_path = gen(tmp_path, d=4, seed=6)
    rc = main(["decompose", str(T_path), "--rank", "2", "--seed", "3",
               "--restarts", "2", "--out", str(tmp_path / "rs")])
    assert rc == EXIT_OK
    for i in range(2):
        summary = json.loads(
            (tmp_path / f"rs-{i}.summary.json").read_text())
        assert summary["config"]["seed"] == 3 + i
    assert main(["decompose", str(T_path), "--rank", "2",
                 "--restarts", "0"]) == EXIT_INPUT


# ---------------------------------------------------------------------------
# verify


def test_verify_full_suite_exits_zero(tmp_path):
    report = tmp_path / "report.json"
    rc = main(["verify", "--seed", "0", "--out", str(report)])
    assert rc == EXIT_OK
    doc = json.loads(report.read_text())
    assert doc["all_passed"] is True
    assert len(doc["reports"]) == 12


def test_verify_selector_runs_single_check(tmp_path):
    report = tmp_path / "report.json"
    rc = main(["verify", "--checks", "euler", "--out", str(report)])
    assert rc == EXIT_OK
    doc = json.loads(report.read_text())
    assert [r["lemma"] for r in doc["reports"]] == ["defect-euler-identity"]


def test_verify_unknown_check_is_input_error(capsys):
    rc = main(["verify", "--checks", "nope"])
    assert rc == EXIT_INPUT
    assert "unknown checks" in capsys.readouterr().err


def test_verify_empty_or_repeated_selection_is_input_error(tmp_path,
                                                          capsys):
    report = tmp_path / "report.json"
    for checks, message in ((",", "no checks"), ("", "no checks"),
                            ("euler,euler", "more than once")):
        rc = main(["verify", "--checks", checks, "--out", str(report)])
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not report.exists()


def test_verify_rejects_a_negative_seed(tmp_path, capsys):
    # numpy's message, "expected non-negative integer", once named no seed
    report = tmp_path / "report.json"
    rc = main(["verify", "--seed", "-1", "--out", str(report)])
    assert rc == EXIT_INPUT
    assert capsys.readouterr().err == "error: seed must be nonnegative\n"
    assert not report.exists()


def test_verify_into_a_missing_directory_is_input_error(tmp_path, monkeypatch,
                                                       capsys):
    # the missing directory is found before the suite, not by its write
    ran = []
    for name in verify_mod.CHECKS:
        monkeypatch.setitem(verify_mod.CHECKS, name,
                            lambda rng, name=name: ran.append(name) or [])
    for argv in ([], ["--checks", "euler"]):
        rc = main(["verify", *argv,
                   "--out", str(tmp_path / "missing" / "report.json")])
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error:") and "does not exist" in err
    assert ran == []
    assert not (tmp_path / "missing").exists()


def test_verify_corrupted_gradient_fails_suite(tmp_path, monkeypatch,
                                               capsys):
    def corrupted(p, T):
        g = grad_loss(p, T)
        return g + 0.1 * grad_reg(p)

    monkeypatch.setitem(
        verify_mod.CHECKS, "orthogonality",
        lambda rng: [verify_mod.check_orthogonality(
            rng=rng, grad_loss_fn=corrupted)])
    report = tmp_path / "report.json"
    rc = main(["verify", "--checks", "orthogonality", "--out", str(report)])
    assert rc == EXIT_FAIL
    out = capsys.readouterr().out
    assert "FAIL" in out
    doc = json.loads(report.read_text())
    assert doc["all_passed"] is False


@pytest.fixture
def forks(monkeypatch):
    """verify as on two CPUs in a single-threaded process, whatever this
    machine and its BLAS threads: one worker is forked.  Yields the list
    of the pids forked."""
    real_fork = os.fork
    pids = []

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(cli_module, "_thread_count", lambda: 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", fork)
    yield pids
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


def test_verify_report_from_workers_equals_a_serial_run(tmp_path, forks):
    # the checks run in two processes, longest first, yet the report is
    # run_suite's, byte for byte, for a subset out of that order too
    report = tmp_path / "report.json"
    for seed, names in ((0, None), (1, None), (2, None), (3, None),
                        (1, ["euler", "anti-concentration", "wedin"])):
        argv = ["verify", "--seed", str(seed), "--out", str(report)]
        if names is not None:
            argv += ["--checks", ",".join(names)]
        assert main(argv) == EXIT_OK
        assert report.read_text() == suite_to_json(
            run_suite(seed, names)) + "\n"
    assert len(forks) == 5


def test_verify_raises_a_workers_exception_after_reaping_it(
        tmp_path, monkeypatch, forks):
    # the parent's check waits until the worker has raised, so the
    # worker takes the other check, whichever process took the first
    parent = os.getpid()
    marker = tmp_path / "raised"

    def check(rng):
        if os.getpid() != parent:
            marker.touch()
            raise ArithmeticError("raised in a worker")
        deadline = time.monotonic() + 30
        while not marker.exists() and time.monotonic() < deadline:
            time.sleep(1e-3)
        return []

    for name in ("euler", "wedin"):
        monkeypatch.setitem(verify_mod.CHECKS, name, check)
    with pytest.raises(ArithmeticError, match="raised in a worker"):
        main(["verify", "--checks", "euler,wedin"])
    assert marker.exists() and len(forks) == 1


def test_verify_runs_again_the_check_of_a_worker_that_died(
        tmp_path, monkeypatch, forks):
    # a worker that ends without sending its outcome (killed, say) loses
    # nothing: the parent runs the check it had taken itself
    parent = os.getpid()
    marker = tmp_path / "died"
    expected = suite_to_json(run_suite(2)) + "\n"

    def dying(check):
        def run_check(rng):
            if os.getpid() != parent:
                marker.touch()
                os._exit(1)
            deadline = time.monotonic() + 30
            while not marker.exists() and time.monotonic() < deadline:
                time.sleep(1e-3)
            return check(rng)
        return run_check

    for name, check in list(verify_mod.CHECKS.items()):
        monkeypatch.setitem(verify_mod.CHECKS, name, dying(check))
    report = tmp_path / "report.json"
    assert main(["verify", "--seed", "2", "--out", str(report)]) == EXIT_OK
    assert report.read_text() == expected
    assert marker.exists() and len(forks) == 1


@pytest.mark.parametrize("cpus, threads, fork", [
    ({0}, 1, "fails"), ({0, 1}, 2, "fails"), ({0, 1}, 1, "missing"),
    ({0, 1}, 1, "out of processes")])
def test_verify_without_workers_writes_the_same_report(
        tmp_path, monkeypatch, cpus, threads, fork):
    # one CPU, a threaded process or no os.fork: no fork is tried, and
    # the same loop runs in this process alone; a failed fork leaves
    # the work to this process too
    def failing_fork():
        if fork == "out of processes":
            raise BlockingIOError("Resource temporarily unavailable")
        raise AssertionError("fork called")

    monkeypatch.setattr(cli_module, "_thread_count", lambda: threads)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    if fork == "missing":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", failing_fork)
    report = tmp_path / "report.json"
    assert main(["verify", "--seed", "3", "--out", str(report)]) == EXIT_OK
    assert report.read_text() == suite_to_json(run_suite(3)) + "\n"


def test_verify_forks_from_a_process_with_blas_at_one_thread():
    # the thread count is the process's own, BLAS threads included, and a
    # fresh process with BLAS pinned to one thread forks a worker per
    # further CPU
    code = ("import os; from tuckersearch.cli import _worker_count; "
            "print(_worker_count(8), "
            "min(len(os.sched_getaffinity(0)), 8) - 1)")
    src = str(Path(cli_module.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get(
                   "PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    workers, expected = out.split()
    assert workers == expected


def test_main_builds_the_parser_once(capsys):
    # the parser costs about a millisecond to build, inside every timed
    # decompose; parsing leaves it unchanged, so one serves every call,
    # a rejected one included
    from tuckersearch.cli import build_parser

    assert build_parser() is build_parser()
    outs = []
    for argv in (["--seed", "2"], ["--seed", "x"], ["--seed", "2"]):
        try:
            assert main(["verify", "--checks", "euler", *argv]) == EXIT_OK
        except SystemExit as exc:
            assert exc.code == EXIT_INPUT
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[2] and "all checks passed" in outs[0]
