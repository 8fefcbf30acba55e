"""Figure 10: post-training of top architectures from the 512- and
1,024-node agent-scaling runs on Combo (large space).

Shape claims reproduced: more agents explore more architectures, and the
scaled runs' top sets match or beat the 256-node run's best estimated
reward while keeping small parameter counts.
"""

import numpy as np

from repro.analytics import unique_architectures
from repro.experiments import post_train_top, print_posttrain, run_cached


def bench_fig10(benchmark):
    runs = {
        "256": run_cached("combo", "a3c", size="large", nodes=256),
        "512-a": run_cached("combo", "a3c", size="large", nodes=512,
                            mode="agents"),
        "1024-a": run_cached("combo", "a3c", size="large", nodes=1024,
                             mode="agents"),
    }

    def do_posttrain():
        return {name: post_train_top("combo", res, large=True)
                for name, res in runs.items() if name != "256"}

    reports = benchmark.pedantic(do_posttrain, rounds=1, iterations=1)
    for name, report in reports.items():
        print_posttrain(f"Fig 10 (combo large, {name} agent scaling, top "
                        f"{len(report.entries)})", report)

    print("\n=== exploration vs scale ===")
    for name, res in runs.items():
        print(f"{name}: evaluations={res.num_evaluations} "
              f"unique={unique_architectures(res.records)} "
              f"best_estimated={res.best().reward:.3f}")

    # more agents -> more exploration
    assert unique_architectures(runs["1024-a"].records) > \
        unique_architectures(runs["256"].records)
    # scaling does not lose reward quality
    assert runs["1024-a"].best().reward >= runs["256"].best().reward - 0.05
