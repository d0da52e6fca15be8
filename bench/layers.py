"""Which traced functions each workload must call, and which it must not.

Each function behind a per-layer metric does its work on the workloads
listed here and is never called on the others, where the prediction for
its metrics is no change.  The traced run checks this pattern, so a
renamed or re-imported function cannot silently zero a metric.
"""

from __future__ import annotations

WEYL, TOY, RESOLVENT, SERIES = ("weyl-count", "toy-lattice",
                                "cavity-resolvent", "cavity-series")
ALL = {WEYL, TOY, RESOLVENT, SERIES}

CALLED_ON = {
    "quantize.quantize_open": {WEYL},
    "quantize.parity_restrict": {WEYL},
    "quantize.build_toy_diagonal": {TOY},
    "quantize.walsh_quantize": {RESOLVENT},
    "quantize.tensor_open_apply_block": {SERIES},
    "transforms.dft_centered": {WEYL},
    "transforms.build_walsh": {RESOLVENT},
    "spectral.eigen_spectrum": {WEYL},
    "spectral.count_sector": {WEYL},
    "spectral.invariant_nonzero_spectrum": {TOY},
    "spectral.compare_spectra": {TOY},
    "spectral.toy_closed_spectrum": {TOY},
    "transport.cavity_propagator": {RESOLVENT},
    "transport.transmission_matrix": {RESOLVENT, SERIES},
    "transport.transport_quantities": {RESOLVENT, SERIES},
    "linalg.eig": {WEYL},
    "linalg.matrix_power": {TOY},
    "linalg.svd": {TOY, RESOLVENT, SERIES},
    "linalg.eigvals": {TOY},
    "linalg.solve": {RESOLVENT},
    "serialize.write_json": ALL,
    "cli.JobRunner.run": ALL,
    "cli.JobRunner.write_manifest": ALL,
    "config.load_config": ALL,
}
# The residual check in eigen_spectrum solves only for sampled eigenpairs
# that miss the residual target, so whether weyl-count calls solve
# depends on the eigensolver's accuracy, not on the code path.
UNCONSTRAINED = {("linalg.solve", WEYL)}


def call_pattern_errors(workload: str, totals: dict) -> list:
    errors = []
    for fn, called_on in CALLED_ON.items():
        if (fn, workload) in UNCONSTRAINED:
            continue
        calls = totals.get(fn, {}).get("calls", 0)
        if workload in called_on and calls == 0:
            errors.append(f"{fn} was not called")
        elif workload not in called_on and calls > 0:
            errors.append(f"{fn} was called {calls} times but should be bypassed")
    return errors


def layer_value(metric: str, totals: dict) -> float:
    """Value of a `<function>.<field>` per-layer metric from the trace totals.

    `serialize.write.*` sums every `serialize.write_*` function, and
    `serialize.bytes` is their written bytes.
    """
    if metric == "serialize.bytes":
        fn, field = "serialize.write", "bytes"
    else:
        fn, field = metric.rsplit(".", 1)
    if fn == "serialize.write":
        rows = [t for name, t in totals.items() if name.startswith("serialize.write_")]
    else:
        rows = [totals[fn]] if fn in totals else []
    return sum(row.get(field, 0) for row in rows)
