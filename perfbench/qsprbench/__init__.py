"""Whole-job benchmark harness for the QSPR mapper (see ``perfbench/README.md``).

The harness drives the program from outside: library workloads call
``repro.runner.executor.execute_cell`` in a closed loop, the service workload
talks HTTP to ``qspr-map serve``.  Nothing here is imported by the program.
"""
