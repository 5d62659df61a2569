#!/usr/bin/env python3
"""Record one result set: every workload of BENCHMARK.json on ten fixed seeds.

    python3 bench/run.py --out bench/out/set-a.json [--traced]

First the benchmark's self-tests run (`cargo test` on `bench/ledger`); the
recording does not start unless they pass. Each run is then the command of
BENCHMARK.json, exactly as the driver issues it:
`<command> --workload W --seed S --seconds <run_seconds> --trace 0`. With
`--traced`, one more run per workload at `--trace 1` records the per-layer
metrics. The recording stops at the first run that is not correct. The set is
what `bench/compare.py` compares.
"""
import argparse
import json
import pathlib
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
# The ledger's default seed comes first, so every set checks the full-size
# digests of bench/anchors/digests.txt. Two sets are comparable because they
# share these seeds: `t1_s` and `peak_heap_mb` depend on the seed.
SEEDS = list(range(42, 52))
SELF_TESTS = ["cargo", "test", "--offline", "--quiet", "--manifest-path", "bench/ledger/Cargo.toml"]


def one_run(bench, workload, seed, trace):
    argv = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    started = time.time()
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"run.py: {' '.join(argv)} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"run.py: {' '.join(argv)} is not correct: "
                 f"{result['failed']} of {result['attempted']} operations failed (see standard error above)")
    kind = "trace" if trace else "result"
    written = json.loads((ROOT / "bench" / "out" / f"{kind}-{workload}.json").read_text())
    return {
        "seed": seed,
        "wall_s": round(time.time() - started, 3),
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }, written["header"]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", required=True, help="where to write the result set")
    ap.add_argument("--traced", action="store_true", help="also record one --trace 1 run per workload")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    if subprocess.run(SELF_TESTS, cwd=ROOT).returncode != 0:
        sys.exit("run.py: the benchmark's self-tests failed; nothing recorded")

    result = {"command": bench["command"], "run_seconds": bench["run_seconds"], "seeds": SEEDS, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            run, header = one_run(bench, workload, seed, 0)
            runs.append(run)
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={v:.4f}" for k, v in run["metrics"].items())
                  + f" ({run['wall_s']:.1f} s)", flush=True)
        # The header of the last run; `seed` and `reps` are per run, the rest
        # (nproc, commit, rustc, sizes, thread counts) holds for all ten.
        entry = {"header": header, "runs": runs}
        if args.traced:
            entry["traced"], entry["traced_header"] = one_run(bench, workload, SEEDS[0], 1)
            print(f"{workload} traced ({entry['traced']['wall_s']:.1f} s)", flush=True)
        result["workloads"][workload] = entry
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
