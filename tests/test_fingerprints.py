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
