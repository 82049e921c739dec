"""The serving benchmark: Tender-quantized serving timed end to end and per layer.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload (see :mod:`perfbench.inputs`) and prints its metrics, one
JSON object on the last line of standard output.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` wraps the public entry points of every
serving layer with spans (:mod:`perfbench.probes`) and reports per-layer
metrics.  ``BENCHMARK.json`` at the repository root names both sets.
"""
