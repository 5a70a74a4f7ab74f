"""Experiment harness: seeded, reproducible runs of every pipeline with
JSON/CSV report emission.

Subcommands: gen, detect, dos, recover, exponents.  Reports embed their
effective configuration and are byte-identical across reruns with the same
seed; volatile fields (wall time) are logged to stderr, never serialized.

Exit codes: 0 success, 2 validation error, 3 capacity error,
4 convergence error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from ._util import (
    DENSE_LIMIT,
    CapacityError,
    ConvergenceError,
    InvalidParameterError,
    derived_rng,
    run_trials,
)
from .instance import ModelParams, sample_instance, save_tensor
from .pipeline import (
    DetectionConfig,
    cost_exponents,
    detect_projection,
    detect_spectral,
    multistep_run,
    simulate_quantum_amplified,
    simulate_quantum_unamplified,
)
from .recovery import recovery_chain
from .spectral import analytic_bounds, density_of_states, leading_eigenvalue
from .hamiltonian import HamiltonianOperator
from .fock import build_basis

VERSION = "0.1.0"

METHODS = ("spectral", "projection", "q-unamp", "q-amp")


@dataclass
class RunConfig:
    """Validated bundle of one subcommand invocation."""

    subcommand: str
    N_list: list = field(default_factory=lambda: [6])
    nbos_list: list = field(default_factory=lambda: [4])
    p: int = 4
    lambda_list: list = field(default_factory=lambda: [0.0])
    zeta: float | None = None
    seed: int = 0
    trials: int = 1
    method: str = "projection"
    c_prime: float = 0.2
    slack: float = 10.0
    c_doubleprime: float = 20.0
    tol: float = 1e-8
    k: int = 0
    out: str = "report.json"
    fmt: str = "json"
    dump_operator: str | None = None
    dense_limit: int = DENSE_LIMIT
    threads: int = 1
    ensemble: str = "real"
    unspiked: bool = False
    x_grid: list = field(default_factory=lambda: [0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
    mode: str = "eig"
    boost_with: str = "t0"
    state_file: str | None = None
    tensor_file: str | None = None
    logs: list = field(default_factory=list)

    def detection_config(self) -> DetectionConfig:
        return DetectionConfig(
            c_prime=self.c_prime,
            slack=self.slack,
            c_doubleprime=self.c_doubleprime,
            tol=self.tol,
            dense_limit=self.dense_limit,
        )

    def model_params(self, N: int, n_bos: int, lam: float) -> ModelParams:
        return ModelParams(
            N=N, n_bos=n_bos, p=self.p, lambda_bar=lam, zeta=self.zeta,
            seed=self.seed, ensemble=self.ensemble,
        )


def _stable_report_row(rep) -> dict:
    """Serializable detection fields, without volatile timing."""
    d = asdict(rep) if not isinstance(rep, dict) else dict(rep)
    d.pop("wall_time", None)
    return d


def _config_echo(config: RunConfig) -> dict:
    """The experimental configuration, without the output location (so a
    rerun into a different file stays byte-identical)."""
    d = asdict(config)
    d.pop("out", None)
    return d


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, tuple):
        return list(obj)
    return str(obj)


def _write_csv(path: str, header_comment: dict, columns: list, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("# config: " + json.dumps(header_comment, sort_keys=True, default=_json_default) + "\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen(config: RunConfig) -> dict:
    """Write one instance tensor to the tensor file format."""
    params = config.model_params(config.N_list[0], config.nbos_list[0], config.lambda_list[0])
    tensor, v = sample_instance(params, spiked=not config.unspiked)
    save_tensor(config.out, tensor, fmt=config.fmt if config.fmt in ("json", "binary") else "json")
    return {
        "subcommand": "gen",
        "out": config.out,
        "provenance": tensor.provenance,
        "lambda": tensor.lam,
        "N": params.N,
    }


def _run_one_detection(config: RunConfig, params: ModelParams, spiked: bool, trial: int):
    tensor, v = sample_instance(params, spiked=spiked, rng=derived_rng(params.seed, "instance", trial))
    cfg = config.detection_config()
    trial_seed = params.seed * 1_000_003 + trial
    if config.method == "spectral":
        rep = detect_spectral(tensor, params, seed=trial_seed, dense_limit=config.dense_limit)
    elif config.method == "projection":
        if config.k > 0:
            ms = multistep_run(tensor, params, cfg=cfg, seed=trial_seed, k=config.k)
            return {
                "algorithm": f"multistep-k{config.k}",
                "verdict": ms.verdict,
                "statistic": ms.statistic,
                "threshold": ms.threshold,
                "seed": trial_seed,
                "lambda": tensor.lam,
                "cost_estimate": ms.cost_estimate,
                "chain_product": ms.chain_product,
                "q_j": list(ms.q_j),
            }
        rep = detect_projection(tensor, params, cfg, seed=trial_seed)
    elif config.method == "q-unamp":
        rep = simulate_quantum_unamplified(tensor, params, cfg, seed=trial_seed)
    elif config.method == "q-amp":
        rep = simulate_quantum_amplified(tensor, params, cfg, seed=trial_seed)
    else:
        raise InvalidParameterError(f"unknown method {config.method!r}")
    row = _stable_report_row(rep)
    row["lambda"] = tensor.lam
    return row


# failures that turn one trial into an error row instead of ending the sweep
_TRIAL_ERRORS = (CapacityError, ConvergenceError, InvalidParameterError, MemoryError)


def cmd_detect(config: RunConfig) -> dict:
    """Detection sweep over the (N, n_bos, lambda) grid.

    Each trial draws a spiked and an unspiked instance so the aggregates
    carry both true- and false-positive rates.  Per-trial failures are
    recorded as structured error rows and never abort the sweep.
    """
    if config.dump_operator:
        # debugging export: the operator of the first spiked instance on the
        # first grid point, in matrix-market format
        from scipy.io import mmwrite

        params = config.model_params(
            config.N_list[0], config.nbos_list[0], config.lambda_list[0]
        )
        tensor, _ = sample_instance(params, spiked=True, rng=derived_rng(params.seed, "instance", 0))
        h = HamiltonianOperator(tensor.tensor, build_basis(params.N, params.n_bos))
        mmwrite(config.dump_operator, h.sparse_matrix().tocsr())

    rows = []
    for N in config.N_list:
        for n_bos in config.nbos_list:
            for lam in config.lambda_list:
                params = config.model_params(N, n_bos, lam)

                def one(trial: int, params=params):
                    out = []
                    for spiked in (True, False):
                        try:
                            row = _run_one_detection(config, params, spiked, trial)
                        except _TRIAL_ERRORS as exc:
                            row = {
                                "error": type(exc).__name__,
                                "message": str(exc),
                                "lambda": params.lambda_bar if spiked else 0.0,
                                "seed": params.seed * 1_000_003 + trial,
                            }
                        row["N"] = N
                        row["n_bos"] = n_bos
                        row["trial"] = trial
                        out.append(row)
                    return out

                for chunk in run_trials(one, config.trials, threads=config.threads):
                    rows.extend(chunk)
    spiked_rows = [r for r in rows if r.get("lambda", 0.0) != 0.0 and "error" not in r]
    unspiked_rows = [r for r in rows if r.get("lambda", 0.0) == 0.0 and "error" not in r]
    aggregates = {
        "tpr": _rate(spiked_rows, "spiked"),
        "fpr": _rate(unspiked_rows, "spiked"),
        "trials": config.trials,
        "errors": sum(1 for r in rows if "error" in r),
    }
    payload = {
        "subcommand": "detect",
        "version": VERSION,
        "config": _config_echo(config),
        "trials": rows,
        "aggregates": aggregates,
    }
    if config.fmt == "csv":
        _write_csv(
            config.out,
            _config_echo(config),
            ["seed", "lambda", "verdict", "statistic", "threshold"],
            [
                [r.get("seed"), r.get("lambda"), r.get("verdict"), r.get("statistic"), r.get("threshold")]
                for r in rows
                if "error" not in r
            ],
        )
    else:
        _write_json(config.out, payload)
    return payload


def _rate(rows: list, verdict: str) -> float | None:
    if not rows:
        return None
    return sum(1 for r in rows if r.get("verdict") == verdict) / len(rows)


def cmd_dos(config: RunConfig) -> dict:
    """Density-of-states sweep over the N grid (unspiked instances)."""
    tables = []
    csv_rows = []
    for N in config.N_list:
        for n_bos in config.nbos_list:
            params = config.model_params(N, n_bos, 0.0)
            est = density_of_states(
                params,
                x_grid=config.x_grid,
                trials=config.trials,
                seed=config.seed,
                dense_limit=config.dense_limit,
                threads=config.threads,
            )
            tables.append(
                {
                    "N": N,
                    "n_bos": n_bos,
                    "trials": est.trials,
                    "e_max_ref": est.e_max_ref,
                    "mean_lambda1": est.mean_lambda1,
                    "x": est.x_grid.tolist(),
                    "p_greater": est.p_greater.tolist(),
                    "stderr": est.stderr.tolist(),
                    "g_hat": [None if not np.isfinite(g) else g for g in est.g_hat],
                }
            )
            for i, x in enumerate(est.x_grid):
                g = est.g_hat[i]
                csv_rows.append(
                    [
                        x,
                        est.p_greater[i],
                        est.stderr[i],
                        "" if not np.isfinite(g) else g,
                        N,
                        n_bos,
                        est.trials,
                        config.seed,
                    ]
                )
    payload = {
        "subcommand": "dos",
        "version": VERSION,
        "config": _config_echo(config),
        "tables": tables,
    }
    if config.fmt == "csv":
        _write_csv(
            config.out,
            _config_echo(config),
            ["x", "p_greater", "stderr", "g_hat", "N", "n_bos", "trials", "seed"],
            csv_rows,
        )
    else:
        _write_json(config.out, payload)
    return payload


def cmd_recover(config: RunConfig) -> dict:
    """Full detect -> project -> density-matrix -> recover -> boost chain.

    Unspiked-verdict trials report detection_failed and skip recovery.
    With --state (plus --tensor for the boosting stage) the chain starts
    from a saved post-projection snapshot instead of detecting afresh.
    """
    from .fock import load_state
    from .instance import load_tensor
    from .pipeline import projection_statistic, p_threshold

    if config.state_file:
        if not config.tensor_file:
            raise InvalidParameterError("--state also needs --tensor for the boosting stage")
        state = load_state(config.state_file).normalized()
        tensor = load_tensor(config.tensor_file)
        rep = recovery_chain(state, tensor, v_reference=None, mode=config.mode,
                             seed=config.seed)
        payload = {
            "subcommand": "recover",
            "version": VERSION,
            "config": _config_echo(config),
            "trials": [
                {
                    "trial": 0,
                    "detected": True,
                    "source": "snapshot",
                    "iterations": rep.iterations_used,
                    "mode": rep.mode,
                    "seed": rep.seed,
                    "candidate": rep.candidate.tolist(),
                    "boosted": rep.boosted.tolist(),
                }
            ],
            "aggregates": {"detected": 1, "trials": 1, "mean_corr_boosted": None},
        }
        _write_json(config.out, payload)
        return payload

    rows = []
    for trial in range(config.trials):
        params = config.model_params(
            config.N_list[0], config.nbos_list[0], config.lambda_list[0]
        )
        tensor, v = sample_instance(
            params, spiked=not config.unspiked, rng=derived_rng(config.seed, "instance", trial)
        )
        trial_seed = config.seed * 1_000_003 + trial
        cfg = config.detection_config()
        t_plus = None
        try:
            if config.method == "spectral":
                basis = build_basis(params.N, params.n_bos)
                h = HamiltonianOperator(tensor.tensor, basis)
                bounds = analytic_bounds(params)
                lam1, vec = leading_eigenvalue(h, seed=trial_seed)
                detected = lam1 >= bounds.e_cut
                state = vec.normalized() if detected else None
            else:
                outcome = projection_statistic(tensor, params, cfg, seed=trial_seed)
                thr = p_threshold(params, cfg)
                detected = outcome.statistic >= thr
                state = outcome.projected.normalized() if detected else None
                t_plus = outcome.pair.t_plus
        except _TRIAL_ERRORS as exc:
            rows.append({"trial": trial, "error": type(exc).__name__, "message": str(exc)})
            continue
        if not detected:
            rows.append({"trial": trial, "detected": False, "status": "detection_failed"})
            continue
        if config.boost_with == "tplus" and t_plus is not None:
            boost_tensor = t_plus
        else:
            boost_tensor = tensor
        rep = recovery_chain(
            state, boost_tensor, v_reference=v, mode=config.mode, seed=trial_seed
        )
        rows.append(
            {
                "trial": trial,
                "detected": True,
                "corr_initial": rep.corr_initial,
                "corr_boosted": rep.corr_boosted,
                "iterations": rep.iterations_used,
                "mode": rep.mode,
                "seed": rep.seed,
            }
        )
    recovered = [r for r in rows if r.get("detected")]
    payload = {
        "subcommand": "recover",
        "version": VERSION,
        "config": _config_echo(config),
        "trials": rows,
        "aggregates": {
            "detected": len(recovered),
            "trials": config.trials,
            "mean_corr_boosted": (
                float(np.mean([r["corr_boosted"] for r in recovered])) if recovered else None
            ),
        },
    }
    _write_json(config.out, payload)
    return payload


def cmd_exponents(config: RunConfig) -> dict:
    """Emit the theoretical cost-exponent table plus measured query counts
    harvested from previously written detection reports."""
    params = config.model_params(
        config.N_list[0], config.nbos_list[0], config.lambda_list[0]
    )
    measured = {}
    for path in config.logs:
        with open(path) as fh:
            data = json.load(fh)
        for row in data.get("trials", []):
            if "error" in row:
                continue
            name = row.get("algorithm", "unknown")
            counts = row.get("query_counts") or {}
            agg = measured.setdefault(name, {})
            for key, val in counts.items():
                agg[key] = agg.get(key, 0) + int(val)
    table = cost_exponents(params)
    payload = {
        "subcommand": "exponents",
        "version": VERSION,
        "config": _config_echo(config),
        "nbos_eq": table.nbos_eq if np.isfinite(table.nbos_eq) else None,
        "ratios": {k: str(v) for k, v in table.ratios.items()},
        "exponents": {
            k: (v if np.isfinite(v) else None) for k, v in table.exponents.items()
        },
        "measured": measured,
    }
    _write_json(config.out, payload)
    return payload


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _int_list(text: str) -> list:
    return [int(tok) for tok in text.split(",") if tok != ""]


def _float_list(text: str) -> list:
    return [float(tok) for tok in text.split(",") if tok != ""]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensorpca",
        description="Seeded experiments for spiked-tensor detection and recovery.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--N", type=_int_list, default=[6], help="mode counts (comma list)")
        p.add_argument("--nbos", type=_int_list, default=[4], help="boson counts (comma list)")
        p.add_argument("--p", type=int, default=4)
        p.add_argument("--lambda", dest="lambda_list", type=_float_list, default=[0.0],
                       help="claimed signal strengths (comma list)")
        p.add_argument("--zeta", type=float, default=None, help="default: 1/ln N")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--trials", type=int, default=1)
        p.add_argument("--out", type=str, default="report.json")
        p.add_argument("--format", dest="fmt", choices=("json", "csv", "binary"), default="json")
        p.add_argument("--dense-limit", dest="dense_limit", type=int, default=DENSE_LIMIT)
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--ensemble", choices=("real", "complex"), default="real")

    g = sub.add_parser("gen", help="write an instance tensor file")
    common(g)
    g.add_argument("--unspiked", action="store_true")

    d = sub.add_parser("detect", help="detection sweep with ROC aggregates")
    common(d)
    d.add_argument("--method", choices=METHODS, default="projection")
    d.add_argument("--cprime", dest="c_prime", type=float, default=0.2)
    d.add_argument("--slack", type=float, default=10.0)
    d.add_argument("--cdoubleprime", dest="c_doubleprime", type=float, default=20.0)
    d.add_argument("--tol", type=float, default=1e-8)
    d.add_argument("--k", type=int, default=0, help="multistep depth (projection method)")
    d.add_argument("--dump-operator", dest="dump_operator", default=None,
                   help="write the first instance operator as a matrix-market file")

    o = sub.add_parser("dos", help="density-of-states tables")
    common(o)
    o.add_argument("--xgrid", dest="x_grid", type=_float_list,
                   default=[0.0, 0.2, 0.4, 0.6, 0.8, 1.0])

    r = sub.add_parser("recover", help="detect/project/recover/boost chain")
    common(r)
    r.add_argument("--method", choices=("spectral", "projection"), default="projection")
    r.add_argument("--cprime", dest="c_prime", type=float, default=0.2)
    r.add_argument("--slack", type=float, default=10.0)
    r.add_argument("--mode", choices=("eig", "randomized"), default="eig")
    r.add_argument("--unspiked", action="store_true")
    r.add_argument("--boost-with", dest="boost_with", choices=("t0", "tplus"), default="t0")
    r.add_argument("--state", dest="state_file", default=None,
                   help="start from a saved state snapshot instead of detecting")
    r.add_argument("--tensor", dest="tensor_file", default=None,
                   help="instance tensor file for the boosting stage (with --state)")

    e = sub.add_parser("exponents", help="cost-exponent table")
    common(e)
    e.add_argument("--logs", type=lambda s: s.split(","), default=[],
                   help="detection report JSONs to harvest query counts from")

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        subcommand=args.subcommand,
        N_list=args.N,
        nbos_list=args.nbos,
        p=args.p,
        lambda_list=args.lambda_list,
        zeta=args.zeta,
        seed=args.seed,
        trials=args.trials,
        method=getattr(args, "method", "projection"),
        c_prime=getattr(args, "c_prime", 0.2),
        slack=getattr(args, "slack", 10.0),
        c_doubleprime=getattr(args, "c_doubleprime", 20.0),
        tol=getattr(args, "tol", 1e-8),
        k=getattr(args, "k", 0),
        out=args.out,
        fmt=args.fmt,
        dump_operator=getattr(args, "dump_operator", None),
        dense_limit=args.dense_limit,
        threads=args.threads,
        ensemble=args.ensemble,
        unspiked=getattr(args, "unspiked", False),
        x_grid=getattr(args, "x_grid", [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]),
        mode=getattr(args, "mode", "eig"),
        boost_with=getattr(args, "boost_with", "t0"),
        state_file=getattr(args, "state_file", None),
        tensor_file=getattr(args, "tensor_file", None),
        logs=getattr(args, "logs", []),
    )


_DISPATCH = {
    "gen": cmd_gen,
    "detect": cmd_detect,
    "dos": cmd_dos,
    "recover": cmd_recover,
    "exponents": cmd_exponents,
}


def main(argv: list | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    config = config_from_args(args)
    try:
        _DISPATCH[config.subcommand](config)
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
