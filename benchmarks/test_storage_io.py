"""The storage layer's cost model (DESIGN.md §8): encode/decode
throughput and bytes-at-rest per backend (memory, file, gzip), and the
continuous audit's O(epoch) memory claim.

Two panels:

* **Round-trip throughput** -- one served wiki run pushed through every
  scheme.  Every scheme's decoded copy must audit to a verdict identical
  to the original's, and gzip must actually compress: ``ratio`` is each
  scheme's bytes at rest over the uncompressed record stream (the
  ``memory`` scheme's buffers).

* **Streaming memory** -- the same run audited from a file store two
  ways: monolithically (decode everything, audit once) and continuously
  (``iter_epochs_stored``: one epoch resident at a time).  The asserted
  quantity is the tracemalloc peak of the audit phase (deterministic,
  interpreter baseline excluded); each side's whole-process peak RSS
  (``ru_maxrss``, measured in a fresh subprocess per mode) is reported
  alongside.  The streamed peak must be bounded by the epoch size, not
  the trace: it must undercut the monolithic peak and shrink as epochs
  shrink.
"""

from __future__ import annotations

from repro.harness import print_series
from repro.harness.experiment import (
    ExperimentConfig,
    measure_storage_io,
    measure_streaming_memory,
)

IO_COLUMNS = ["scheme", "encode_s", "decode_s", "bytes", "ratio", "verdict_ok"]

MEM_COLUMNS = [
    "seal_every",
    "epochs",
    "streamed_peak_kb",
    "monolithic_peak_kb",
    "streamed_rss_kib",
    "monolithic_rss_kib",
    "verdicts_ok",
]


def _cfg(scale, n_requests=None) -> ExperimentConfig:
    return ExperimentConfig(
        "wiki",
        mix="mixed",
        n_requests=n_requests or scale.n_requests,
        concurrency=15,
        seed=0,
    )


def test_storage_roundtrip_throughput(benchmark, scale, tmp_path):
    comparison = benchmark.pedantic(
        lambda: measure_storage_io(_cfg(scale), str(tmp_path), repeats=3),
        rounds=1, iterations=1,
    )
    raw_bytes = comparison.stored_bytes["memory"]
    rows = [
        {
            "scheme": scheme,
            "encode_s": comparison.encode_seconds[scheme],
            "decode_s": comparison.decode_seconds[scheme],
            "bytes": comparison.stored_bytes[scheme],
            "ratio": comparison.stored_bytes[scheme] / raw_bytes,
            "verdict_ok": comparison.verdict_matches[scheme],
        }
        for scheme in comparison.encode_seconds
    ]
    print_series(
        f"Storage round-trip ({comparison.trace_events} trace events, wiki)",
        rows, IO_COLUMNS,
    )
    # Physical encoding must never change the audit outcome.
    assert comparison.all_verdicts_match, comparison.verdict_matches
    # Compression must earn its CPU: well under the uncompressed footprint.
    assert comparison.stored_bytes["gzip"] < 0.5 * raw_bytes


def test_streaming_audit_memory(benchmark, scale, tmp_path):
    def _sweep():
        out = []
        for seal_every in (5, 20):
            root = str(tmp_path / f"seal-{seal_every}")
            out.append(
                measure_streaming_memory(
                    _cfg(scale), seal_every, root, measure_rss=True
                )
            )
        return out

    sweep = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    rows = [
        {
            "seal_every": m.seal_every,
            "epochs": m.epochs,
            "streamed_peak_kb": m.streamed_peak_bytes // 1024,
            "monolithic_peak_kb": m.monolithic_peak_bytes // 1024,
            "streamed_rss_kib": m.streamed_peak_rss_kib,
            "monolithic_rss_kib": m.monolithic_peak_rss_kib,
            "verdicts_ok": m.verdicts_match,
        }
        for m in sweep
    ]
    print_series(
        f"Continuous audit memory, --store file ({2 * _cfg(scale).n_requests} "
        "trace events, wiki)",
        rows, MEM_COLUMNS,
    )
    for m in sweep:
        assert m.streamed_accepted and m.monolithic_accepted
        # O(epoch), not O(trace): the streamed audit never holds the
        # decoded whole, so its peak must undercut the monolithic audit's.
        assert m.streamed_peak_bytes < m.monolithic_peak_bytes, (
            f"seal_every={m.seal_every}: streamed peak "
            f"{m.streamed_peak_bytes} >= monolithic {m.monolithic_peak_bytes}"
        )
    # And the bound tracks the epoch size: finer epochs, smaller peak.
    finest, coarsest = sweep[0], sweep[-1]
    assert finest.epochs > coarsest.epochs
    assert finest.streamed_peak_bytes < coarsest.streamed_peak_bytes, (
        f"peak did not shrink with epoch size: "
        f"{finest.streamed_peak_bytes} (seal_every={finest.seal_every}) vs "
        f"{coarsest.streamed_peak_bytes} (seal_every={coarsest.seal_every})"
    )
