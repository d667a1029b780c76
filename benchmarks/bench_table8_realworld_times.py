"""Table 8 — Build and query times for the real-world dataset proxies."""
from repro.eval.experiments import render_table


def test_table8_realworld_times(spark, benchmark, realworld_rows):
    rows, _ = realworld_rows
    render_table("table8", rows)
    # representative op: summing measured times is trivial; re-time the
    # smallest end-to-end proxy so the bench records a real duration
    from repro.eval.experiments import REALWORLD_SPECS, run_realworld  # noqa
    import tempfile

    def small_run():
        with tempfile.TemporaryDirectory() as d:
            return run_realworld(spark, d, scale=0.15)

    benchmark.pedantic(small_run, rounds=1, iterations=1)
