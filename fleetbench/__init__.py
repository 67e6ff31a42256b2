"""Fleet benchmark for the serve -> cluster -> storage -> write stack.

``python3 fleetbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one closed-loop workload against a real 2-shard,
process-transport, pack-backed ``ClusterRouter`` and prints its metrics.
See ``fleetbench/README.md`` for the metric catalogue and workloads.
"""
