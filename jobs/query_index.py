"""spark-submit entrypoint: query a built LANNS index and report recall.

Example:
    spark-submit jobs/query_index.py --index /tmp/idx --dataset sift_like \
        --topk 100 --ef 160
"""
import argparse

from pyspark.sql import SparkSession

from repro.bruteforce.local import exact_topk
from repro.core.querying import query_index
from repro.eval.recall import recall_table
from repro import synth_data


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--index", required=True)
    ap.add_argument("--dataset", default="sift_like")
    ap.add_argument("--n", type=int, default=20_000)
    ap.add_argument("--topk", type=int, default=100)
    ap.add_argument("--ef", type=int, default=160)
    ap.add_argument("--executors", type=int, default=None)
    ap.add_argument("--checkpoint-dir", default=None)
    args = ap.parse_args()

    spark = (
        SparkSession.builder.appName("lanns-query")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    ds = getattr(synth_data, args.dataset)(n=args.n)
    res = query_index(
        spark, args.index, ds.queries, args.topk, ef=args.ef,
        n_executors=args.executors, checkpoint_dir=args.checkpoint_dir,
    ).toPandas()
    gt, _ = exact_topk(ds.queries, ds.base, args.topk, ids=ds.ids, metric=ds.metric)
    for k, r in recall_table(res, gt).items():
        print(f"R@{k}: {r:.4f}")
    spark.stop()


if __name__ == "__main__":
    main()
