"""Fig. 2 — Checkpoint bytes and pack/unpack latency per codec.

Reproduced claim: compression is a CPU-for-bytes trade with a sharp
structure dependence — byte codecs are near-useless (~1x) on dense amplitude
data (Haar *and* generic shallow-ansatz states: even tiny amplitudes carry
full-entropy mantissas) but collapse the exact-zero runs of sparse
(low-excitation) states by orders of magnitude; lzma is smallest and
slowest.  The ``zlib-N`` codec acts on exactly that result: it probes each
input and frames dense data as stored DEFLATE blocks instead of deflating it
for a 0.1% gain, so on dense states it packs and unpacks in about the time
of ``none``, while a sparse state gets the same deflate, byte for byte.
Kernel timed: zlib-6 pack at 16 qubits.
"""

import zlib

from repro.bench.experiments import fig2_codecs
from repro.bench.reporting import format_table
from repro.bench.workloads import synthetic_snapshot
from repro.core.codecs import get_codec
from repro.core.serialize import pack_snapshot, tensor_to_bytes

# zlib-6 against "none" on a dense 16-qubit state (best of 5).  Before the
# probe the pack ratio was ~22x (32 ms of DEFLATE on 1.4 ms) and the unpack
# ratio ~5x.  Now packing costs the probe (0.35 ms) plus zlib's stored
# framing and checksum of 1 MiB (1.1 ms) on top of "none": measured 1.4-2.1x;
# unpacking adds the 0.5-0.8 ms to read that framing back: measured 1.3-1.6x.
# (The issue asked for 1.5x both ways; a zlib-framed chunk cannot get there.)
DENSE_PACK_VS_NONE_MAX = 2.5
DENSE_UNPACK_VS_NONE_MAX = 2.0


def test_fig2_codecs(benchmark, report):
    rows = fig2_codecs(
        qubit_counts=(12, 16),
        codecs=("none", "zlib-1", "zlib-6", "lzma", "bz2"),
        kinds=("haar", "ansatz", "sparse"),
    )
    report("Fig. 2 — codec comparison", format_table(rows))

    by_key = {(r["n_qubits"], r["state"], r["codec"]): r for r in rows}

    # Dense amplitude data barely compresses, whatever its physical origin.
    for kind in ("haar", "ansatz"):
        assert by_key[(16, kind, "zlib-6")]["ratio"] < 1.5

    # Exact-zero structure is where lossless codecs pay: ≥50x at 16 qubits.
    assert by_key[(16, "sparse", "zlib-6")]["ratio"] > 50.0
    assert (
        by_key[(16, "sparse", "zlib-6")]["ratio"]
        > by_key[(16, "haar", "zlib-6")]["ratio"] * 20
    )

    # lzma trades encode CPU for the smallest output on compressible data.
    assert (
        by_key[(16, "sparse", "lzma")]["stored_bytes"]
        <= by_key[(16, "sparse", "zlib-1")]["stored_bytes"]
    )

    # "none" is within rounding of ratio 1.
    assert 0.9 < by_key[(16, "haar", "none")]["ratio"] < 1.1

    # What the zlib codec does with this figure: dense states are not
    # deflated, so zlib-6 costs about what "none" costs, both ways ...
    for kind in ("haar", "ansatz"):
        none, zlib6 = by_key[(16, kind, "none")], by_key[(16, kind, "zlib-6")]
        assert zlib6["encode_s"] <= DENSE_PACK_VS_NONE_MAX * none["encode_s"]
        assert zlib6["decode_s"] <= DENSE_UNPACK_VS_NONE_MAX * none["decode_s"]
    # ... and a sparse state is deflated exactly as before the probe.
    sparse_raw, _, _ = tensor_to_bytes(
        synthetic_snapshot(16, statevector_kind="sparse").statevector
    )
    assert get_codec("zlib-6").encode(sparse_raw) == zlib.compress(sparse_raw, 6)

    snapshot = synthetic_snapshot(16)
    benchmark(pack_snapshot, snapshot, "zlib-6")
