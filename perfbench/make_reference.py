"""Write the stored outputs that the benchmark's default seed must reproduce.

    python3 perfbench/make_reference.py

Run it only when a change is meant to alter drs's numbers, and commit the
new files with the change that explains why.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import workloads
from run import OUT, ROOT, import_program


def main():
    import_program()
    seed = workloads.DEFAULT_SEED
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT))
    try:
        for name in ("cv-housing", "predict-stream"):
            workload = workloads.WORKLOADS[name]
            inputs = workloads.prepare(workload, seed, ROOT, workdir)
            out_dir = workdir / name
            code, stdout, stderr = workloads.run_op(
                workloads.argv(workload, inputs, seed, out_dir, 1))
            if code != 0:
                raise SystemExit(f"{name}: exit code {code}: {stderr}")
            stem = workloads.REFERENCE_DIR / f"{workload.reference}.seed{seed}"
            if workload.command == "predict":
                digest = workloads.predictions_digest(workloads.printed_predictions(stdout))
                Path(f"{stem}.sha256").write_text(f"{digest}  printed predictions\n")
            else:
                shutil.copyfile(out_dir / "results.csv", f"{stem}.results.csv")
            print(f"wrote {stem.name}.*")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
