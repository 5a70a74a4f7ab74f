"""Rewrite the seeded-report corpus that tests/test_golden.py checks.

Run it from the repository root after a declared report change, and list
every field that moved in CHANGES.md:

    PYTHONPATH=src python tests/golden/record.py

Each entry of COMMANDS is one `tensorpca` command line; its report is the
corpus file of the same name.  The commands run in order, in one scratch
folder, with bare file names, so the path echoes in a report (--logs,
--state, --tensor) read the same wherever they run.  A command may read
an earlier command's report or one of the snapshot inputs that
write_inputs saves there.  Each entry of DIGESTS is an API result that no
report shows, written as JSON to the file of its name.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

# one BLAS thread, as in the test session (conftest.py): some corpus files
# move in their last bits with the thread count.  Set before numpy loads;
# an explicit setting in the environment wins
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from tensorpca import (
    DetectionConfig,
    ModelParams,
    build_basis,
    derived_rng,
    embed_power_state,
    multistep_run,
    projection_statistic,
    sample_instance,
    spdm,
)
from tensorpca.cli import main
from tensorpca.fock import save_state
from tensorpca.instance import save_tensor

GOLDEN = Path(__file__).resolve().parent

# the ROC operating point of the acceptance suite (N=6, n_bos=4)
_ROC_LAMBDA = "0.2732336812165897"

COMMANDS = {
    # the five commands of test_acceptance.py::test_12_determinism
    "gen.bin": ["gen", "--N", "4", "--nbos", "4", "--lambda", "0.3", "--seed", "71",
                "--format", "binary"],
    "determinism-detect.json": ["detect", "--method", "projection", "--N", "3", "--nbos", "4",
                                "--lambda", "0.5", "--trials", "3", "--seed", "72"],
    "determinism-dos.csv": ["dos", "--N", "4", "--nbos", "4", "--trials", "4", "--seed", "73",
                            "--format", "csv"],
    "determinism-recover.json": ["recover", "--N", "4", "--nbos", "4", "--lambda", "2.0",
                                 "--trials", "2", "--seed", "74"],
    "determinism-exponents.json": ["exponents", "--N", "6", "--nbos", "4", "--lambda", "0.05"],
    # every detector at the ROC operating point
    **{
        f"detect-{method}-6-4.json": ["detect", "--method", method, "--N", "6", "--nbos", "4",
                                      "--lambda", _ROC_LAMBDA, "--trials", "2"]
        for method in ("spectral", "projection", "q-unamp", "q-amp")
    },
    # the cascade, one and two levels deep
    "cascade-k1-3-8.json": ["detect", "--method", "projection", "--k", "1", "--N", "3",
                            "--nbos", "8", "--lambda", "0.03", "--trials", "2"],
    "cascade-k2-2-16.json": ["detect", "--method", "projection", "--k", "2", "--N", "2",
                             "--nbos", "16", "--lambda", "0.03", "--trials", "2"],
    # a step at most 60 states wide projects with its own eigensystem, also
    # with a dense limit below its dimension
    "detect-projection-3-4.json": ["detect", "--method", "projection", "--N", "3", "--nbos", "4",
                                   "--lambda", "0.5", "--trials", "2"],
    "detect-projection-3-4-ritz.json": ["detect", "--method", "projection", "--N", "3",
                                        "--nbos", "4", "--lambda", "0.5", "--trials", "2",
                                        "--dense-limit", "10"],
    # a step above the exact range at the default dense limit: the probe, then
    # a dense projection, or an empty window proven at its midpoint
    "detect-projection-7-4.json": ["detect", "--method", "projection", "--N", "7", "--nbos", "4",
                                   "--lambda", "0.2", "--trials", "2", "--seed", "7"],
    # a step above the exact range, below the dense limit: the probe, then Ritz
    # continuing its sweep
    "detect-projection-7-4-ritz.json": ["detect", "--method", "projection", "--N", "7",
                                        "--nbos", "4", "--lambda", "0.2", "--trials", "2",
                                        "--seed", "7", "--dense-limit", "150"],
    # the recovery operating point: a probed spiked row and a proven-empty null row
    "detect-projection-16-4.json": ["detect", "--method", "projection", "--N", "16", "--nbos", "4",
                                    "--lambda", "0.12", "--dense-limit", "1500", "--trials", "1",
                                    "--seed", "99"],
    "recover-16-4.json": ["recover", "--N", "16", "--nbos", "4", "--lambda", "0.12",
                         "--dense-limit", "1500", "--trials", "1", "--seed", "99"],
    "recover-snapshot.json": ["recover", "--state", "state.json", "--tensor", "tensor.json",
                              "--seed", "12"],
    "dos.json": ["dos", "--N", "3", "--nbos", "4", "--trials", "2"],
    "exponents-logs.json": ["exponents", "--N", "16", "--nbos", "4", "--lambda", "0.12",
                            "--logs", "detect-projection-16-4.json"],
}


def cascade_p_j() -> dict:
    """p_j of an uneven k=2 cascade, 20 -> 12 + 8 -> 8 + 4 + 4 + 4 bosons at
    N=2: the 8-boson leaf merges two copies of |T>, and the levels above
    take the symmetrized products 8 + 4 and 12 + 8."""
    params = ModelParams(N=2, n_bos=20, lambda_bar=0.03, seed=0)
    tensor, _ = sample_instance(params, spiked=True, rng=derived_rng(0, "chain", 0))
    report = multistep_run(tensor, params, k=2)
    return {"level_sizes": report.level_sizes, "p_j": report.p_j}


def recovery_state() -> dict:
    """The Ritz-projected state and its spdm for the first spiked draw of
    the recovery operating point (N=16, n_bos=4, D=3876, dense limit 1500)."""
    params = ModelParams(N=16, n_bos=4, lambda_bar=0.12, seed=99)
    tensor, _ = sample_instance(params, spiked=True, rng=derived_rng(99, "recov16", 0))
    outcome = projection_statistic(tensor, params, DetectionConfig(dense_limit=1500), seed=0)
    return {
        "statistic": outcome.statistic,
        "projected": outcome.projected.amps.tolist(),
        "spdm": spdm(outcome.projected.normalized()).tolist(),
    }


DIGESTS = {
    "api-cascade-k2-2-20.json": cascade_p_j,
    "api-recovery-16-4.json": recovery_state,
}

CORPUS = [*COMMANDS, *DIGESTS]


def write_inputs(folder: Path) -> None:
    """Save the snapshot that recover-snapshot.json starts from: the power
    state of a seeded spiked instance at N=3, n_bos=4, and its tensor."""
    tensor, _ = sample_instance(ModelParams(N=3, n_bos=4, lambda_bar=2.0, seed=12), spiked=True)
    state, _ = embed_power_state(build_basis(3, 4), tensor.tensor)
    save_state(folder / "state.json", state)
    save_tensor(folder / "tensor.json", tensor)


def generate(folder: Path) -> None:
    """Write every corpus file into folder, running the commands there."""
    folder = Path(folder)
    for name, digest in DIGESTS.items():
        (folder / name).write_text(json.dumps(digest(), sort_keys=True, indent=1) + "\n")
    write_inputs(folder)
    here = os.getcwd()
    os.chdir(folder)
    try:
        for name, args in COMMANDS.items():
            if main([*args, "--out", name]) != 0:
                raise RuntimeError(f"{name}: tensorpca {' '.join(args)} failed")
    finally:
        os.chdir(here)


def record() -> None:
    """Replace the corpus files with fresh outputs and drop stale ones."""
    for old in GOLDEN.iterdir():
        if old.is_file() and old.name != Path(__file__).name:
            old.unlink()
    with tempfile.TemporaryDirectory() as scratch:
        generate(Path(scratch))
        for name in CORPUS:
            shutil.copyfile(Path(scratch) / name, GOLDEN / name)
    total = sum((GOLDEN / name).stat().st_size for name in CORPUS)
    print(f"wrote {len(CORPUS)} files, {total} bytes, to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    record()
