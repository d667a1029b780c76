"""spark-submit entrypoint: learn a segmenter and build a LANNS index.

Example:
    spark-submit jobs/build_index.py --dataset sift_like --out /tmp/idx \
        --shards 2 --segments 4 --kind APD --alpha 0.15
"""
import argparse

from pyspark.sql import SparkSession

from repro.core.indexing import build_index
from repro.segmenters.learning import learn_segmenter, sample_vectors
from repro import synth_data
from repro.synth_data import vectors_to_df


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dataset", default="sift_like",
                    help="generator name in repro.synth_data (e.g. sift_like)")
    ap.add_argument("--n", type=int, default=20_000)
    ap.add_argument("--out", required=True, help="index store directory")
    ap.add_argument("--shards", type=int, default=1)
    ap.add_argument("--segments", type=int, default=8)
    ap.add_argument("--kind", choices=("RS", "RH", "APD"), default="APD")
    ap.add_argument("--alpha", type=float, default=0.15)
    ap.add_argument("--spill", choices=("virtual", "physical"), default="virtual")
    ap.add_argument("--executors", type=int, default=None,
                    help="simulated executor count (buckets)")
    ap.add_argument("--hnsw-m", type=int, default=12)
    ap.add_argument("--ef-construction", type=int, default=100)
    args = ap.parse_args()

    spark = (
        SparkSession.builder.appName("lanns-build")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    ds = getattr(synth_data, args.dataset)(n=args.n)
    df = vectors_to_df(spark, ds.base, ds.ids)
    sample = sample_vectors(df, n_sample=min(ds.n, 8000))
    seg = learn_segmenter(args.kind, args.segments, sample=sample, alpha=args.alpha)
    summary = build_index(
        spark, df, args.out, seg, args.shards, spill=args.spill,
        metric=ds.metric, hnsw_m=args.hnsw_m,
        ef_construction=args.ef_construction, n_executors=args.executors,
    )
    print(summary.to_string(index=False))
    spark.stop()


if __name__ == "__main__":
    main()
