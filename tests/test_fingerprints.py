import json

import fingerprints


def _run(name, index, **fields):
    run = {"set": name, "index": index, "status": "converged",
           "grad_evals": 10, "objective_evals": 40, "rounds": 1,
           "point_sha256": "p", "trace_sha256": "t"}
    run.update(fields)
    return run


def test_compare_lists_each_differing_run_with_its_deltas(tmp_path):
    a = [_run("desk", 0), _run("desk", 1), _run("grid", 0),
         _run("grid", 1)]
    b = [_run("desk", 0), _run("desk", 1, grad_evals=13, objective_evals=38,
                                point_sha256="q"),
         _run("grid", 0, status="budget", rounds=0, trace_sha256="u"),
         _run("rank-1", 0)]
    fingerprints.write(tmp_path / "a.jsonl", a)
    fingerprints.write(tmp_path / "b.jsonl", b)
    lines = fingerprints.compare(fingerprints.read(tmp_path / "a.jsonl"),
                                 fingerprints.read(tmp_path / "b.jsonl"))
    assert lines == [
        "desk 1: grad_evals +3, objective_evals -2, point_sha256",
        "grid 0: rounds -1, status converged -> budget, trace_sha256",
        "grid 1: only in A",
        "rank-1 0: only in B",
    ]


def test_compare_of_equal_files_is_empty(tmp_path):
    runs = [_run("desk", i, grad_evals=i) for i in range(3)]
    fingerprints.write(tmp_path / "a.jsonl", runs)
    fingerprints.write(tmp_path / "b.jsonl", reversed(runs))
    a = fingerprints.read(tmp_path / "a.jsonl")
    assert len(a) == 3
    assert fingerprints.compare(a, fingerprints.read(tmp_path / "b.jsonl")) \
        == []


def test_a_verify_report_line_holds_its_status_trials_and_digest(tmp_path):
    # one line per (seed, check): the JSON of a report is digested with
    # sorted keys, so equal reports give equal lines, and a changed
    # detail, trial count or verdict shows in the comparison
    report = {"lemma": "origin-flat-saddle", "trials": 102, "failures": 0,
              "worst_margin": -0.7, "tolerance": 1e-8, "passed": True,
              "details": {"improved_fraction": 1.0, "grad_norm": 0.0}}
    line = fingerprints.report_fields(3, report)
    assert line == {
        "seed": 3, "check": "origin-flat-saddle", "status": "passed",
        "trials": 102,
        "report_sha256": fingerprints.digest(json.dumps(
            report, sort_keys=True).encode())}
    reordered = dict(reversed(report.items()))
    assert fingerprints.report_fields(3, reordered) == line
    moved = dict(report, details={"improved_fraction": 0.99,
                                  "grad_norm": 0.0})
    failed = dict(report, trials=101, failures=1, passed=False)
    a = [dict(line, set="verify", index=0), dict(line, set="verify", index=1)]
    b = [dict(line, set="verify", index=0),
         dict(fingerprints.report_fields(3, moved), set="verify", index=1),
         dict(fingerprints.report_fields(3, failed), set="verify", index=2)]
    fingerprints.write(tmp_path / "a.jsonl", a)
    fingerprints.write(tmp_path / "b.jsonl", b)
    assert fingerprints.compare(fingerprints.read(tmp_path / "a.jsonl"),
                                fingerprints.read(tmp_path / "b.jsonl")) == [
        "verify 1: report_sha256",
        "verify 2: only in B",
    ]
    a.append(dict(line, set="verify", index=2))
    fingerprints.write(tmp_path / "a.jsonl", a)
    assert fingerprints.compare(
        fingerprints.read(tmp_path / "a.jsonl"),
        fingerprints.read(tmp_path / "b.jsonl"))[1] == \
        "verify 2: report_sha256, status passed -> failed, trials -1"


def test_compare_ends_with_a_tally_of_the_kinds_of_change():
    # a status change, a count change with a new point, a change of the
    # trace bytes alone, and final f moved by 1e-3 and 2e-5 relative in
    # two sets
    a = [_run("desk", 0, f=2.0), _run("desk", 1, f=1.0),
         _run("desk", 2, f=4.0), _run("noisy-desk", 0, f=1.0),
         _run("noisy-desk", 1, f=0.5)]
    b = [_run("desk", 0, f=2.0), _run("desk", 1, status="budget", f=1.0),
         _run("desk", 2, f=4.004, grad_evals=12, point_sha256="q"),
         _run("noisy-desk", 0, f=1.0, trace_sha256="u"),
         _run("noisy-desk", 1, f=0.50001, point_sha256="q")]
    a, b = ({(r["set"], r["index"]): r for r in x} for x in (a, b))
    assert fingerprints.compare(a, b) == [
        "desk 1: status converged -> budget",
        "desk 2: f, grad_evals +2, point_sha256",
        "noisy-desk 0: trace_sha256",
        "noisy-desk 1: f, point_sha256",
    ]
    assert fingerprints.tally(a, b) == [
        "1 changed status, 1 changed counts, 2 changed final point, "
        "1 differ only in trace bytes",
        "largest relative change of final f: desk 1.0e-03 (run 2), "
        "noisy-desk 2.0e-05 (run 1)",
    ]
    assert fingerprints.tally(a, a) == [
        "0 changed status, 0 changed counts, 0 changed final point, "
        "0 differ only in trace bytes",
        "largest relative change of final f: desk 0.0e+00 (run 0), "
        "noisy-desk 0.0e+00 (run 0)",
    ]


def test_a_file_without_final_f_still_compares(tmp_path):
    # a file written before runs recorded f compares with one that does:
    # f is compared only where both hold it, and the tally has no f line
    old = [_run("desk", 0), _run("desk", 1)]
    new = [_run("desk", 0, f=0.25), _run("desk", 1, f=0.5, rounds=2)]
    fingerprints.write(tmp_path / "old.jsonl", old)
    fingerprints.write(tmp_path / "new.jsonl", new)
    a = fingerprints.read(tmp_path / "old.jsonl")
    b = fingerprints.read(tmp_path / "new.jsonl")
    assert fingerprints.compare(a, b) == ["desk 1: rounds +1"]
    assert fingerprints.compare(b, a) == ["desk 1: rounds -1"]
    assert fingerprints.tally(a, b) == [
        "0 changed status, 1 changed counts, 0 changed final point, "
        "0 differ only in trace bytes"]
