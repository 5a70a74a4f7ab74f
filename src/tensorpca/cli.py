"""Experiment harness: seeded, reproducible runs of every pipeline with
JSON/CSV report emission.

Subcommands: gen, detect, dos, recover, exponents.  The harness only
samples instances, loops over the grid and trials, and writes reports:
every detection decision belongs to the detectors of `pipeline.DETECTORS`,
whose reports hand over their serialized row and the state that recovery
starts from.  Reports embed their effective configuration and are
byte-identical across reruns with the same seed; wall-clock time is
never serialized.

A subcommand offers only the options it reads.  A report's config echoes
every RunConfig field, and the fields a subcommand does not offer keep
their defaults there.  gen, recover and exponents take one value each of
--N, --nbos and --lambda, and a recover --state run refuses the options
that only the sampled route reads.

Exit codes: 0 success, 2 validation error, 3 capacity error,
4 convergence error.  An input file that cannot be read or parsed and
an --out path outside a writable directory are validation errors too,
found before any trial runs; a command that exits 2 writes no file.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from ._util import (
    CapacityError,
    ConvergenceError,
    InvalidParameterError,
    derived_rng,
    run_trials,
)
from .fock import load_state
from .instance import ModelParams, load_tensor, sample_instance, save_tensor
from .pipeline import DETECTORS, DetectionConfig, cost_exponents, multistep_run
from .recovery import recovery_chain
from .spectral import density_of_states


@dataclass
class RunConfig:
    """Validated bundle of one subcommand invocation.  Its defaults are the
    CLI's defaults: the parser leaves every option it was not given unset."""

    subcommand: str
    N_list: list = field(default_factory=lambda: [6])
    nbos_list: list = field(default_factory=lambda: [4])
    lambda_list: list = field(default_factory=lambda: [0.0])
    zeta: float | None = None
    seed: int = 0
    trials: int = 1
    method: str = "projection"
    c_prime: float = DetectionConfig.c_prime
    slack: float = DetectionConfig.slack
    c_doubleprime: float = DetectionConfig.c_doubleprime
    tol: float = DetectionConfig.tol
    k: int = 0
    out: str = "report.json"
    fmt: str = "json"
    dense_limit: int = DetectionConfig.dense_limit
    threads: int = 1
    ensemble: str = "real"
    unspiked: bool = False
    x_grid: list = field(default_factory=lambda: [0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
    mode: str = "eig"
    boost_with: str = "t0"
    state_file: str | None = None
    tensor_file: str | None = None
    logs: list = field(default_factory=list)

    def __post_init__(self):
        """The checks that need no other option: the counts, and that --out
        names a file in a writable directory."""
        for flag, count in (("--trials", self.trials), ("--threads", self.threads)):
            if count < 1:
                raise InvalidParameterError(f"{flag} must be at least 1, got {count}")
        folder = os.path.dirname(os.path.abspath(self.out))
        if os.path.isdir(self.out) or not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
            raise InvalidParameterError(f"--out {self.out}: not a file in a writable directory")

    def detection_config(self) -> DetectionConfig:
        """The detector knobs, validated together with the method name and
        the cascade depth, so a bad option fails the command before any
        trial runs."""
        if self.method not in DETECTORS:
            raise InvalidParameterError(
                f"unknown method {self.method!r}; choose from {', '.join(DETECTORS)}"
            )
        if self.k < 0 or (self.k > 0 and self.method != "projection"):
            raise InvalidParameterError(
                f"--k {self.k}: the cascade depth must be >= 0, and > 0 only with "
                "--method projection"
            )
        return DetectionConfig(
            c_prime=self.c_prime,
            slack=self.slack,
            c_doubleprime=self.c_doubleprime,
            tol=self.tol,
            dense_limit=self.dense_limit,
        )

    def model_params(self, N: int, n_bos: int, lam: float) -> ModelParams:
        return ModelParams(
            N=N, n_bos=n_bos, lambda_bar=lam, zeta=self.zeta,
            seed=self.seed, ensemble=self.ensemble,
        )

    def single_params(self) -> ModelParams:
        """The one model point of a subcommand that runs no grid."""
        grid = {"--N": self.N_list, "--nbos": self.nbos_list, "--lambda": self.lambda_list}
        for flag, values in grid.items():
            if len(values) != 1:
                raise InvalidParameterError(f"{flag} takes one value here, got {values}")
        return self.model_params(self.N_list[0], self.nbos_list[0], self.lambda_list[0])


def _emit(config: RunConfig, columns=(), csv_rows=(), **fields) -> dict:
    """Build the report envelope around `fields`, write it to `config.out`
    and return it.  A CSV report is one header comment holding the
    configuration, then `columns` and `csv_rows`.  The report is encoded
    in full before the file is opened, so a failure leaves no file."""
    echo = asdict(config)
    echo.pop("out")  # so a rerun into another file stays byte-identical
    payload = {"subcommand": config.subcommand, "version": __version__, "config": echo, **fields}
    if config.fmt == "csv":
        buf = io.StringIO(newline="")
        buf.write("# config: " + json.dumps(echo, sort_keys=True) + "\n")
        writer = csv.writer(buf)
        writer.writerow(columns)
        writer.writerows(csv_rows)
        text = buf.getvalue()
    else:
        text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    with open(config.out, "w", newline="") as fh:
        fh.write(text)
    return payload


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen(config: RunConfig) -> dict:
    """Write one instance tensor to the tensor file format."""
    params = config.single_params()
    tensor, _ = sample_instance(params, spiked=not config.unspiked)
    save_tensor(config.out, tensor, fmt=config.fmt)
    return {
        "subcommand": "gen",
        "out": config.out,
        "provenance": tensor.provenance,
        "lambda": tensor.lam,
        "N": params.N,
    }


def _trial_seed(seed: int, trial: int) -> int:
    """Detector seed of one trial of a sweep seeded with seed."""
    return seed * 1_000_003 + trial


def _run_one_detection(
    config: RunConfig,
    cfg: DetectionConfig,
    params: ModelParams,
    spiked: bool,
    trial: int,
    shared: dict,
):
    """One row of a trial.  shared holds what the trial's two rows have in
    common: a cascade's q_j, which depend on the trial seed, not on the
    instance, so the second row reuses those of the first."""
    tensor, _ = sample_instance(params, spiked=spiked, rng=derived_rng(params.seed, "instance", trial))
    trial_seed = _trial_seed(params.seed, trial)
    if config.method == "projection" and config.k > 0:
        rep = multistep_run(
            tensor, params, cfg=cfg, seed=trial_seed, k=config.k, q_j=shared.get("q_j")
        )
        shared["q_j"] = rep.q_j
    else:
        rep = DETECTORS[config.method](tensor, params, cfg, seed=trial_seed)
    return {**rep.row(), "lambda": tensor.lam}


# failures that turn one trial into an error row instead of ending the sweep
_TRIAL_ERRORS = (CapacityError, ConvergenceError, InvalidParameterError, MemoryError)


def cmd_detect(config: RunConfig) -> dict:
    """Detection sweep over the (N, n_bos, lambda) grid.

    Each trial draws a spiked and an unspiked instance so the aggregates
    carry both true- and false-positive rates.  Per-trial failures are
    recorded as structured error rows and never abort the sweep; an
    invalid detection option fails the command before any trial runs.
    """
    cfg = config.detection_config()
    rows = []
    for N in config.N_list:
        for n_bos in config.nbos_list:
            for lam in config.lambda_list:
                params = config.model_params(N, n_bos, lam)

                def one(trial: int, params=params):
                    out, shared = [], {}
                    for spiked in (True, False):
                        try:
                            row = _run_one_detection(config, cfg, params, spiked, trial, shared)
                        except _TRIAL_ERRORS as exc:
                            row = {
                                "error": type(exc).__name__,
                                "message": str(exc),
                                "lambda": params.lambda_bar if spiked else 0.0,
                                "seed": _trial_seed(params.seed, trial),
                            }
                        row["N"] = N
                        row["n_bos"] = n_bos
                        row["trial"] = trial
                        out.append(row)
                    return out

                for chunk in run_trials(one, config.trials, threads=config.threads):
                    rows.extend(chunk)
    ok = [r for r in rows if "error" not in r]
    columns = ["seed", "lambda", "verdict", "statistic", "threshold"]
    return _emit(
        config,
        columns,
        [[r.get(c) for c in columns] for r in ok],
        trials=rows,
        aggregates={
            "tpr": _rate([r for r in ok if r["lambda"] != 0.0]),
            "fpr": _rate([r for r in ok if r["lambda"] == 0.0]),
            "trials": config.trials,
            "errors": len(rows) - len(ok),
        },
    )


def _rate(rows: list) -> float | None:
    """Share of rows with a spiked verdict."""
    if not rows:
        return None
    return sum(1 for r in rows if r["verdict"] == "spiked") / len(rows)


def cmd_dos(config: RunConfig) -> dict:
    """Density-of-states sweep over the N grid (unspiked instances)."""
    tables = []
    for N in config.N_list:
        for n_bos in config.nbos_list:
            params = config.model_params(N, n_bos, 0.0)
            est = density_of_states(
                params,
                x_grid=config.x_grid,
                trials=config.trials,
                dense_limit=config.dense_limit,
                threads=config.threads,
            )
            tables.append(
                {
                    "N": N,
                    "n_bos": n_bos,
                    "trials": config.trials,
                    "e_max_ref": est.e_max_ref,
                    "mean_lambda1": est.mean_lambda1,
                    "x": config.x_grid,
                    "p_greater": est.p_greater.tolist(),
                    "stderr": est.stderr.tolist(),
                    "g_hat": [None if not np.isfinite(g) else g for g in est.g_hat],
                }
            )
    csv_rows = [
        [x, p, err, "" if g is None else g, t["N"], t["n_bos"], t["trials"], config.seed]
        for t in tables
        for x, p, err, g in zip(t["x"], t["p_greater"], t["stderr"], t["g_hat"])
    ]
    return _emit(
        config,
        ["x", "p_greater", "stderr", "g_hat", "N", "n_bos", "trials", "seed"],
        csv_rows,
        tables=tables,
    )


def _recover_one(config: RunConfig, cfg: DetectionConfig, params: ModelParams, trial: int) -> dict:
    """One sampled trial of the recovery chain: detect, then recover and
    boost from the detector's state only on a spiked verdict."""
    tensor, v = sample_instance(
        params, spiked=not config.unspiked, rng=derived_rng(config.seed, "instance", trial)
    )
    trial_seed = _trial_seed(config.seed, trial)
    try:
        det = DETECTORS[config.method](tensor, params, cfg, seed=trial_seed)
        state = det.state.normalized() if det.spiked else None
    except _TRIAL_ERRORS as exc:
        return {"trial": trial, "error": type(exc).__name__, "message": str(exc)}
    if state is None:
        return {"trial": trial, "detected": False, "status": "detection_failed"}
    boost_tensor = det.pair.t_plus if config.boost_with == "tplus" else tensor
    rep = recovery_chain(state, boost_tensor, v_reference=v, mode=config.mode, seed=trial_seed)
    return {
        "trial": trial,
        "detected": True,
        "corr_initial": rep.corr_initial,
        "corr_boosted": rep.corr_boosted,
        "iterations": rep.iterations_used,
        "mode": config.mode,
        "seed": trial_seed,
    }


def cmd_recover(config: RunConfig) -> dict:
    """Full detect -> project -> density-matrix -> recover -> boost chain.

    Unspiked-verdict trials report detection_failed and skip recovery.
    With --state (plus --tensor for the boosting stage) the chain starts
    from a saved post-projection snapshot instead of detecting afresh, and
    refuses every option of the sampled route that is set away from its
    default.  Boosting with t_plus needs the decorrelated pair of a
    projection detector, which neither the snapshot nor the spectral
    detector has.

    The spike is planted only up to sign, so the aggregates score |corr|:
    mean_corr_boosted averages it over the boosted trials, and
    boosted_win_rate is the share of sampled trials boosted to
    |corr| >= 0.9 (None for a snapshot, which has no planted direction).
    """
    if bool(config.state_file) != bool(config.tensor_file):
        raise InvalidParameterError("--state and --tensor go together: the snapshot and its tensor")
    if config.boost_with == "tplus" and config.method == "spectral":
        raise InvalidParameterError(
            "--boost-with tplus needs a projection method: "
            "only a projection detector draws the decorrelated pair"
        )
    if config.state_file:
        default = RunConfig(config.subcommand)
        unread = [flag for flag in _SAMPLED_ONLY.split()
                  if getattr(config, _dest(flag)) != getattr(default, _dest(flag))]
        if unread:
            raise InvalidParameterError(
                f"{', '.join(unread)}: a --state run reads only --seed, --mode and its files"
            )
        state = load_state(config.state_file).normalized()
        tensor = load_tensor(config.tensor_file)
        rep = recovery_chain(state, tensor, v_reference=None, mode=config.mode,
                             seed=config.seed)
        rows = [
            {
                "trial": 0,
                "detected": True,
                "source": "snapshot",
                "iterations": rep.iterations_used,
                "mode": config.mode,
                "seed": config.seed,
                "candidate": rep.candidate.tolist(),
                "boosted": rep.boosted.tolist(),
            }
        ]
    else:
        cfg = config.detection_config()
        params = config.single_params()
        rows = [_recover_one(config, cfg, params, trial) for trial in range(config.trials)]
    corrs = [abs(r["corr_boosted"]) for r in rows if "corr_boosted" in r]
    sampled = bool(rows) and not config.state_file
    return _emit(
        config,
        trials=rows,
        aggregates={
            "detected": sum(1 for r in rows if r.get("detected")),
            "trials": len(rows),
            "mean_corr_boosted": float(np.mean(corrs)) if corrs else None,
            "boosted_win_rate": sum(c >= 0.9 for c in corrs) / len(rows) if sampled else None,
        },
    )


def cmd_exponents(config: RunConfig) -> dict:
    """Emit the theoretical cost-exponent table plus measured query counts
    harvested from previously written detect reports; a log that cannot be
    read or is no detect report is a validation error."""
    params = config.single_params()
    rows = []
    for path in config.logs:
        try:
            with open(path) as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            raise InvalidParameterError(f"--logs {path}: {exc}") from None
        if not isinstance(report, dict) or report.get("subcommand") != "detect":
            raise InvalidParameterError(f"--logs {path}: not a detect report")
        rows.extend(report.get("trials", []))
    table = cost_exponents(params, rows)
    return _emit(
        config,
        nbos_eq=table.nbos_eq if np.isfinite(table.nbos_eq) else None,
        ratios={k: str(v) for k, v in table.ratios.items()},
        exponents={k: (v if np.isfinite(v) else None) for k, v in table.exponents.items()},
        measured=table.measured,
    )


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _comma_list(text: str, kind) -> list:
    values = [kind(tok) for tok in text.split(",") if tok != ""]
    if not values:
        raise argparse.ArgumentTypeError(f"expected a comma list of values, got {text!r}")
    return values


def _int_list(text: str) -> list:
    return _comma_list(text, int)


def _float_list(text: str) -> list:
    return _comma_list(text, float)


# every option, declared once: flag -> add_argument keywords; dests are RunConfig fields
_OPTIONS = {
    "--N": dict(dest="N_list", type=_int_list, help="mode counts (comma list)"),
    "--nbos": dict(dest="nbos_list", type=_int_list, help="boson counts (comma list)"),
    "--lambda": dict(dest="lambda_list", type=_float_list, help="claimed strengths (comma list)"),
    "--zeta": dict(type=float, help="default: 1/ln N"),
    "--seed": dict(type=int),
    "--trials": dict(type=int),
    "--out": dict(type=str),
    "--dense-limit": dict(type=int),
    "--threads": dict(type=int),
    "--ensemble": dict(choices=("real", "complex")),
    "--unspiked": dict(action="store_true"),
    "--method": dict(choices=tuple(DETECTORS)),
    "--cprime": dict(dest="c_prime", type=float),
    "--slack": dict(type=float),
    "--cdoubleprime": dict(dest="c_doubleprime", type=float),
    "--tol": dict(type=float),
    "--k": dict(type=int, help="multistep depth (projection method)"),
    "--xgrid": dict(dest="x_grid", type=_float_list),
    "--mode": dict(choices=("eig", "randomized")),
    "--boost-with": dict(choices=("t0", "tplus")),
    "--state": dict(dest="state_file", help="start from a saved state snapshot, not detection"),
    "--tensor": dict(dest="tensor_file", help="instance tensor file for boosting (with --state)"),
    "--logs": dict(type=lambda s: s.split(","), help="detection reports to harvest counts from"),
}

# recover options that only the sampled route reads; a --state run refuses them
_SAMPLED_ONLY = ("--N --nbos --lambda --zeta --trials --dense-limit --method --cprime --slack "
                 "--unspiked --boost-with")


def _dest(flag: str) -> str:
    """The RunConfig field an option sets."""
    return _OPTIONS[flag].get("dest", flag[2:].replace("-", "_"))


# subcommand -> (handler, help, the formats it writes, the options it reads)
_SUBCOMMANDS = {
    "gen": (cmd_gen, "write an instance tensor file", ("json", "binary"),
            "--N --nbos --lambda --seed --out --ensemble --unspiked"),
    "detect": (cmd_detect, "detection sweep with ROC aggregates", ("json", "csv"),
               "--N --nbos --lambda --zeta --seed --trials --out --dense-limit --threads "
               "--method --cprime --slack --cdoubleprime --tol --k"),
    "dos": (cmd_dos, "density-of-states tables", ("json", "csv"),
            "--N --nbos --seed --trials --out --dense-limit --threads --xgrid"),
    "recover": (cmd_recover, "detect/project/recover/boost chain", ("json",),
                "--N --nbos --lambda --zeta --seed --trials --out --dense-limit "
                "--method --cprime --slack --mode --unspiked --boost-with --state --tensor"),
    "exponents": (cmd_exponents, "cost-exponent table", ("json",),
                  "--N --nbos --lambda --out --ensemble --logs"),
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser.  Every `dest` is a RunConfig field, and no option has
    a default here: an option left out stays unset, so RunConfig states it."""
    parser = argparse.ArgumentParser(
        prog="tensorpca",
        description="Seeded experiments for spiked-tensor detection and recovery.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help, formats, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        p.add_argument("--format", dest="fmt", choices=formats)
        for flag in flags.split():
            p.add_argument(flag, **_OPTIONS[flag])
    return parser


def main(argv: list | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        config = RunConfig(**vars(args))
        _SUBCOMMANDS[config.subcommand][0](config)
    except InvalidParameterError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return 4
    print(config.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
