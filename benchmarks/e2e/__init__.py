"""The repo's end-to-end benchmark: four named workloads through the whole
serving path (``SwitchBackend.process_batch``) and the whole control path
(``Controller`` → WAL → apply → ack → ``recover``), with a traced pass that
attributes each batch / op to the layers it crossed.

Entry points (see ``README.md`` in this directory):

* ``python3 benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0|1``
  — one workload, one process, one JSON result line (the ``BENCHMARK.json``
  contract);
* ``PYTHONPATH=src python -m benchmarks.e2e --seed S`` — every workload in a
  fresh interpreter each, plus the traced pass, as one recorded run set;
* ``python -m benchmarks.e2e compare A B`` / ``pair ROOT_A ROOT_B`` — the
  noise-aware comparison of two run sets.

Nothing under ``src/`` is edited: layers are measured from outside by
wrapping their public callables (``tracing.py``).
"""
