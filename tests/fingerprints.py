"""Per-run fingerprints of the census sets, and their comparison.

A fingerprint file holds one JSON line per run: its set, its index in the
set, its status, `grad_evals`, `objective_evals` and `rounds`, and the
sha256 of the final point's bytes (`FactorPoint.flat`) and of its trace
as `tuckersearch decompose` writes it.  A verify report's line holds
instead its set, index, suite seed and check, its pass status, `trials`
and the sha256 of its JSON (`report_fields`).  The digests repeat only
for one BLAS build and thread count, so compare files written with the
same.
`census.py --fingerprint OUT` writes a file and `census.py --compare A B`
compares two; this module has no side effects, so tests import it.
"""
import hashlib
import json

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
        fields = sorted(f for f in old.keys() | new.keys()
                        if old.get(f) != new.get(f))
        parts = []
        for f in fields:
            if f in COUNTS:
                parts.append(f"{f} {new[f] - old[f]:+d}")
            elif f == "status":
                parts.append(f"status {old[f]} -> {new[f]}")
            else:
                parts.append(f)
        if parts:
            lines.append(f"{name}: {', '.join(parts)}")
    return lines
