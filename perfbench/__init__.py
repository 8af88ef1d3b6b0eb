"""End-to-end BAYWATCH benchmark: workloads, harness and layer trace.

``python3 perfbench/run.py --workload daily|monthly|backfill|all`` runs
one workload and prints its metrics; see ``perfbench/README.md``.
"""
