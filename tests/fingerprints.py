"""Per-run fingerprints of the census sets, and their comparison.

A fingerprint file holds one JSON line per run: its set, its index in the
set, its status, `grad_evals`, `objective_evals` and `rounds`, its final
f, and the sha256 of the final point's bytes (`FactorPoint.flat`) and of
its trace as `tuckersearch decompose` writes it.  A verify report's line
holds instead its set, index, suite seed and check, its pass status,
`trials` and the sha256 of its JSON (`report_fields`).  The digests
repeat only for one BLAS build and thread count, so compare files
written with the same.  Files written before runs recorded `f` still
compare: `f` is compared only where both files hold it.
`census.py --fingerprint OUT` writes a file and `census.py --compare A B`
compares two; this module has no side effects, so tests import it.
"""
import hashlib
import json
from collections import Counter

COUNTS = ("grad_evals", "objective_evals", "rounds", "trials")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_fields(seed: int, report: dict) -> dict:
    """A verify report's fields in a fingerprint file, from the report's
    `to_json_dict` and the suite seed that made it."""
    return {"seed": seed, "check": report["lemma"],
            "status": "passed" if report["passed"] else "failed",
            "trials": report["trials"],
            "report_sha256": digest(json.dumps(report,
                                               sort_keys=True).encode())}


def write(path, runs) -> None:
    with open(path, "w") as fh:
        for run in runs:
            fh.write(json.dumps(run, sort_keys=True) + "\n")


def read(path) -> dict:
    """{(set, index): run} of a fingerprint file."""
    with open(path) as fh:
        runs = [json.loads(line) for line in fh if line.strip()]
    return {(run["set"], run["index"]): run for run in runs}


def _differing(old: dict, new: dict) -> list[str]:
    """The fields of a run that differ between two files, in order; `f`
    only where both hold it."""
    return sorted(f for f in old.keys() | new.keys()
                  if old.get(f) != new.get(f)
                  and (f != "f" or f in old and f in new))


def compare(a: dict, b: dict) -> list[str]:
    """One line per run of a or b, as `read` returns them, that is not the
    same in both: the runs found in only one, and for the others each
    field that differs, with the change b - a of a count, the old and new
    status, or the name of a digest."""
    lines = []
    for key in sorted(a.keys() | b.keys()):
        name = f"{key[0]} {key[1]}"
        if key not in b or key not in a:
            lines.append(f"{name}: only in {'A' if key in a else 'B'}")
            continue
        old, new = a[key], b[key]
        parts = []
        for f in _differing(old, new):
            if f in COUNTS:
                parts.append(f"{f} {new[f] - old[f]:+d}")
            elif f == "status":
                parts.append(f"status {old[f]} -> {new[f]}")
            else:
                parts.append(f)
        if parts:
            lines.append(f"{name}: {', '.join(parts)}")
    return lines


def tally(a: dict, b: dict) -> list[str]:
    """The summary of a comparison of the runs in both a and b: how many
    changed status or final point, and how many differ only in their
    trace bytes; how many changed each field of COUNTS; then, per set
    whose runs record `f` in both, the largest relative change of the
    final f and the run it came from."""
    kinds, worst = Counter(), {}
    for key in sorted(a.keys() & b.keys()):
        old, new = a[key], b[key]
        fields = set(_differing(old, new))
        kinds["status"] += "status" in fields
        kinds.update(fields & set(COUNTS))
        kinds["point"] += "point_sha256" in fields
        kinds["trace"] += fields == {"trace_sha256"}
        if "f" in old and "f" in new:
            gap = abs(new["f"] - old["f"])
            change = (gap / abs(old["f"]) if old["f"]
                      else float("inf") if gap else 0.0)
            if key[0] not in worst or change > worst[key[0]][0]:
                worst[key[0]] = (change, key[1])
    lines = [f"{kinds['status']} changed status, {kinds['point']} changed "
             f"final point, {kinds['trace']} differ only in trace bytes",
             "counts: " + ", ".join(f"{f} {kinds[f]}" for f in COUNTS)]
    if worst:
        lines.append("largest relative change of final f: " + ", ".join(
            f"{name} {change:.1e} (run {index})"
            for name, (change, index) in worst.items()))
    return lines
