import json

import numpy as np
import pytest

from tuckersearch import verify as verify_mod
from tuckersearch.cli import (EXIT_BUDGET, EXIT_FAIL, EXIT_INPUT,
                              EXIT_NO_DIRECTION, EXIT_OK, main)
from tuckersearch.objective import grad_loss, grad_reg, load_point, objective
from tuckersearch.tensor_core import (hosvd, load_tensor,
                                      multilinear_transform, norm_f,
                                      save_tensor_json)


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
    T = load_tensor(path)
    assert T.shape == (5, 5, 5)
    assert abs(norm_f(T) - 1.0) < 1e-12


def test_generate_is_byte_reproducible(tmp_path):
    a = gen(tmp_path, "a.json", seed=5)
    b = gen(tmp_path, "b.json", seed=5)
    assert a.read_bytes() == b.read_bytes()
    c = gen(tmp_path, "c.json", seed=6)
    assert a.read_bytes() != c.read_bytes()


def test_generate_exact_instance_is_hosvd_recoverable(tmp_path):
    T = load_tensor(gen(tmp_path, r=2, d=6, seed=0))
    p = hosvd(T, 2)
    fit = multilinear_transform(p.S, p.A, p.B, p.C)
    assert norm_f(fit - T) ** 2 <= 1e-10


def test_generate_noise_is_flagged_and_sized(tmp_path):
    path = gen(tmp_path, extra=("--noise", "0.05"))
    doc = json.loads(path.read_text())
    assert doc["meta"]["exact"] is False
    assert doc["meta"]["noise"] == 0.05
    clean = load_tensor(gen(tmp_path, "clean.json"))
    noisy = load_tensor(path)
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
    assert load_tensor(path).shape == (4, 4, 4)
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
    rep = objective(p, load_tensor(T_path))
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
    save_tensor_json(malformed, load_tensor(binary), meta=None)
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
    # epsilon far below the reachable floor: the search stalls at a point
    # with no improving direction above the acceptance threshold
    T_path = gen(tmp_path, d=4, seed=2)
    rc = main(["decompose", str(T_path), "--rank", "2",
               "--epsilon", "1e-15", "--out", str(tmp_path / "n")])
    assert rc == EXIT_NO_DIRECTION
    summary = json.loads((tmp_path / "n.summary.json").read_text())
    assert summary["status"] == "no-direction"
    assert summary["f"] <= 1e-8


def test_decompose_non_finite_run_is_an_input_error(tmp_path, capsys):
    # entries of 1e200 overflow the objective: the run ends with an
    # explicit status, not a traceback and the exit code of a failed check
    T_path = tmp_path / "huge.json"
    save_tensor_json(T_path, np.full((2, 2, 2), 1e200), {"r": 1})
    with pytest.warns(RuntimeWarning, match="overflow"):
        rc = main(["decompose", str(T_path), "--out", str(tmp_path / "x")])
    assert rc == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: objective became "
                                              "non-finite")
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


def test_verify_into_a_missing_directory_is_input_error(tmp_path, capsys):
    rc = main(["verify", "--checks", "euler",
               "--out", str(tmp_path / "missing" / "report.json")])
    assert rc == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and "No such file" in err


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
