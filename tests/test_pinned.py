"""Pinned results: arena layouts, memo counters and campaign CSVs.

Edge recovery reads preorder positions and the fault campaigns replay seeded
draws, so results must match node for node, not only up to isomorphism.
Each digest is a sha256 over ``(root, [triples in id order])`` of every
result a function gives on every output of the bundled PLAs and of one
seeded synthetic PLA.  ``pad_chains`` is pinned up to node numbering only:
what it promises is the padded shape, and ``reduction_procedure``, which
consumes it, is pinned exactly.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

import pytest

import resilient_obdd as ro
from resilient_obdd import bench
from resilient_obdd.cli import main

PLAS = sorted((Path(__file__).resolve().parent.parent / "plas").glob("*.pla"))
SEED = 41


def synthetic_pla_text() -> str:
    """Twelve inputs, three outputs, ten cubes with every output marker."""
    rng = random.Random(20240517)
    n, outputs, cubes = 12, 3, 10
    lines = [f".i {n}", f".o {outputs}", f".p {cubes}"]
    for _ in range(cubes):
        ins = "".join(rng.choice("001--") for _ in range(n))
        outs = "".join(rng.choice("0111-~") for _ in range(outputs))
        lines.append(f"{ins} {outs}")
    return "\n".join(lines + [".e"]) + "\n"


def corpus():
    yield from ((p.stem, p.read_text()) for p in PLAS)
    yield "synthetic", synthetic_pla_text()


def layout(d: ro.Diagram) -> bytes:
    triples = [d.store.node(u).triple() for u in d.store.ids()]
    return repr((d.root, triples)).encode()


def shape(d: ro.Diagram) -> bytes:
    """Layout up to numbering: nodes by preorder position."""
    order = ro.dfs_preorder(d, include_terminals=True)
    position = {u: k for k, u in enumerate(order)}
    return repr([(d.store.level(u),) if ro.is_terminal(u) else
                 (d.store.node(u).index, position[d.store.node(u).lo],
                  position[d.store.node(u).hi]) for u in order]).encode()


def faulty_operands(pla, j: int, g: int, rng: random.Random):
    """Fresh resilient operands with two flagged indices each."""
    operands, overlays = [], []
    for k in (j, g):
        d = bench.build_output(pla, k)[2]
        overlay = ro.FaultOverlay(d.store)
        internal = ro.dfs_preorder(d, include_terminals=False)
        for u in rng.sample(internal, min(2, len(internal))):
            ro.inject(d, overlay, u, ro.INDEX, rng)
        operands.append(d)
        overlays.append(overlay)
    return operands, overlays


def file_pins(pla) -> dict[str, str]:
    digests = {}

    def add(name: str, data: bytes):
        digests.setdefault(name, hashlib.sha256()).update(data)

    n = pla.n_inputs
    builds = [bench.build_output(pla, j) for j in range(pla.n_outputs)]
    for j, (r, q, i) in enumerate(builds):
        g = (j + 1) % pla.n_outputs
        rg, qg, ig = builds[g]
        for name, d in (("ro", r), ("qr", q), ("ir", i)):
            add(name, layout(d))
        add("reduce_robdd", layout(ro.reduce_robdd(q)))
        add("restrict", layout(ro.restrict(r, 0, 1)))
        add("restrict", layout(ro.restrict(q, n - 1, 0)))
        add("negate", layout(ro.negate(i)))
        add("negate", layout(ro.negate(r)))
        add("apply", layout(ro.apply(ro.AND, r, rg)))
        add("apply", layout(ro.apply(ro.XOR, q, ig)))
        for op, f, h in ((ro.XOR, i, ig), (ro.OR, q, rg)):
            out = ro.resilient_apply(op, f, h)
            add("resilient_apply", layout(out))
            add("reduction_procedure", layout(ro.reduction_procedure(out)))
            add("pad_chains", shape(ro.pad_chains(out)))

        rng = random.Random(f"{SEED}|{pla.name}|{j}")
        (f, h), overlays = faulty_operands(pla, j, g, rng)
        memo = ro.MemoTable(fault_rng=rng, fault_rate=0.2)
        out = ro.resilient_apply(ro.XOR, f, h, overlays, memo)
        add("resilient_apply", layout(out))
        counters = (memo.hits, memo.misses, memo.inserted, memo.corrupted_total,
                    memo.lost_hits, [ov.reconstruct_calls for ov in overlays])
        add("memo", repr(counters).encode())
        add("reduction_procedure", layout(ro.reduction_procedure(out)))
        add("pad_chains", shape(ro.pad_chains(r)))
    return {name: h.hexdigest() for name, h in digests.items()}


PINNED = {"dontcare": {"apply": "8b77317dba4a7488937322684e94d6105e889ed93538265f4a1a2bf36fee053e",
              "ir": "a60eee17b68c6530701ccad88d62d268f6acd69c4c2d68e17a899a8986c594cd",
              "memo": "57b39500a9a6df04fc87321e68202d14d5ba161a269cac3de47fa26a5af46e6c",
              "negate": "706e9cbfe98c3d108911115a3b0bd5011b656952d897e45aa200e932c5901691",
              "pad_chains": "b3990b55b1b4c60501cd8a5938e7d3934c7228faf145a12d0d6ae79271cef96c",
              "qr": "acb74c78340b82faa29feab601ece1d3a9348fc4193e6e342594a337b86fa0ec",
              "reduce_robdd": "7a25b57634d31bef8a47a00514397c3bdcfbdf010156a7743f6b5d28fb80b5e7",
              "reduction_procedure": "0cce0a9a457382f12f439d5d385d98210d23d6c900af7b627a64cdffa78f360d",
              "resilient_apply": "a04b8020ff8bc475eebcf8366702e110ca2bafacbe492a235824193b5e777794",
              "restrict": "e68b1b63ed313b09ff351267a57243eb742e499eac5d97c11bccdc7a75d0cd17",
              "ro": "7a25b57634d31bef8a47a00514397c3bdcfbdf010156a7743f6b5d28fb80b5e7"},
 "joined": {"apply": "e1a29ebf4ea2ff1963fed4a8d709701722f975173293a8a83038ebe73cdd9bc0",
            "ir": "bfd71febfa335130f52f0f1238825e736c95a159373105ced55b3f39970567f5",
            "memo": "2d19f1fa1cbe9749cdb03f7d0be7c69076d0e92fc9b153ac4a2ff323e8ef346d",
            "negate": "002f4195d83e43d15f2d6c8cf8cef46781f4b198bfbd7a772cf723a930a907e2",
            "pad_chains": "b64a6f1a79f2107cd81be227cd6595f69687cb1179f0dab69cee24ff282cc754",
            "qr": "bfd71febfa335130f52f0f1238825e736c95a159373105ced55b3f39970567f5",
            "reduce_robdd": "bfd71febfa335130f52f0f1238825e736c95a159373105ced55b3f39970567f5",
            "reduction_procedure": "9e49f0a2d67e321841239436b904bc93111375497ca5b8b9d4a350bed9009df1",
            "resilient_apply": "d9a28be74ba77f23d2c7954e9b70d80cedecf97025c2ef1a1e1e9265d9684e6e",
            "restrict": "321caa513dd1e13f854484ba6ebbfc1b1e012d893071a6d15acabfe02308a090",
            "ro": "bfd71febfa335130f52f0f1238825e736c95a159373105ced55b3f39970567f5"},
 "majority3": {"apply": "d558f0998d17eff2f1f788ecb0c9d9de76effb88ff183795893129d093d28c91",
               "ir": "54b92e2a89e5b0ee620d08faf27caab5878606a24ab14d674c740152904d83c4",
               "memo": "c0cfd0df231473b2ad7886b5c40373b5714333be28555f6782864e300dd5c550",
               "negate": "209ad4942abe5138fc0ced8ccd5c9c42a14bb8102bb4ca6052f159af5b4d2e5a",
               "pad_chains": "429752ab3f45509cb464a096a50af25e77cf00fe09431bbaff6a5de9828172af",
               "qr": "bcb4b831464600a407517b348999257975a6ffcfed653e6ec423e6e4cce20028",
               "reduce_robdd": "54b92e2a89e5b0ee620d08faf27caab5878606a24ab14d674c740152904d83c4",
               "reduction_procedure": "e261cd574b9da06e99a280dff88b337baaa6072bf94af2b661325669b9abca74",
               "resilient_apply": "d45b083b7c09efa7549616878f35cd54ec89eba60e36c6c48096f23dbba2a6e0",
               "restrict": "e00024b280fe8166eed9c03bdd137b0a3f074fd2bcdb7d09fc2adabdd85ba376",
               "ro": "54b92e2a89e5b0ee620d08faf27caab5878606a24ab14d674c740152904d83c4"},
 "synthetic": {"apply": "aa1c82698018495a074320ff896a2f5a5139a66306cc59145a240500b9f58880",
               "ir": "e1f5004b02f1011a00f674d1904161324c17b6ff4adf54dba91205ceec227313",
               "memo": "0057f28756750d9fd0dc7cb1bce2f979e2354b7be53961a645be4f9ecefe652b",
               "negate": "927a686b6f53cd3146850800511567ece4f9a8ada192cd4ae1ed81a0a4905d9e",
               "pad_chains": "4e23ebfe3b2b12f9310e559a66d02db99d35f1589641df1de2b2e175af9be5bb",
               "qr": "4268d917dabdabad7c3cb6fe825bfd277fbdb48433d71fcdf3220ba69b9d268e",
               "reduce_robdd": "57b85bef4eecd9e37793894827e9efe9d7e71a63a0a3a1280b8cdef32a397a67",
               "reduction_procedure": "98ce193c4dc03201649f9e3a9d2d78a7cc41e1447edc5c82d88f264375801dd2",
               "resilient_apply": "a8b8f5bc1c6252e1199c23ea4e19097eef3147536e3849309fcf09ab58e54669",
               "restrict": "835cc0906388c263f5f5e880a144e9ebbc8e012118ba80dac3ced01c5843eab1",
               "ro": "57b85bef4eecd9e37793894827e9efe9d7e71a63a0a3a1280b8cdef32a397a67"},
 "xor4": {"apply": "04a94b989d5bc0e8af9d93706db7799502cba46a545d75cd53f1aea5e3b0b375",
          "ir": "a5f07a8a0a6b724ac8c9cc8f5fc672d12e90ef2f5bd45ecc80cdbb25584b1540",
          "memo": "deae43986e9d8fddd578a8a82d9621f93167ae362fcb51557369c518c7788a74",
          "negate": "5be843c17ebe1d2702a89d11edcc02623196018dedbcd0fc00b72602df029c7a",
          "pad_chains": "661cf86c87923d00ff1e505bf88452b12b7c9256db4eaacb29ab367c6ab53ed6",
          "qr": "a5f07a8a0a6b724ac8c9cc8f5fc672d12e90ef2f5bd45ecc80cdbb25584b1540",
          "reduce_robdd": "a5f07a8a0a6b724ac8c9cc8f5fc672d12e90ef2f5bd45ecc80cdbb25584b1540",
          "reduction_procedure": "1a6f7a8bec0332266f7a2807a17afd4f58e2ae06f2fd6d03199630996c7f4cab",
          "resilient_apply": "85aa6ff1c99ad48548c83cca2f4d39d3ef5958e176327de5bc2dfeb31b84158a",
          "restrict": "94ee2d4b48dba4621e127559771796ef3e8e4144845621e02c49cf1fd08fbaae",
          "ro": "a5f07a8a0a6b724ac8c9cc8f5fc672d12e90ef2f5bd45ecc80cdbb25584b1540"}}

CSV_PINNED = {"edge": "ba51a568f629025f47bbb659d4a1fce1fd033ae772c9d13a0f3ed717a4756250",
 "index-ir": "01bedeeb9c8bbfd8804c78e9da352945d1a532355f267b4f13dd0aee489e17a6",
 "index-ut": "308bb811671ca16769b159504cd5e4d6b775d07465011849748d2b72afb23e22"}


@pytest.mark.parametrize("name,text", list(corpus()), ids=[n for n, _ in corpus()])
def test_results_match_pins(name, text):
    assert file_pins(ro.parse_pla(text, name=name)) == PINNED[name]


def campaign_csvs(tmp_path) -> dict[str, str]:
    synthetic = tmp_path / "synthetic.pla"
    synthetic.write_text(synthetic_pla_text())
    paths = [str(p) for p in PLAS] + [str(synthetic)]
    digests = {}
    for mode in ("index-ut", "index-ir", "edge"):
        target = tmp_path / f"{mode}.csv"
        main(["inject-recover", *paths, "--mode", mode, "--trials", "12",
              "--seed", str(SEED), "--faults", "3", "--csv", str(target)])
        digests[mode] = hashlib.sha256(target.read_bytes()).hexdigest()
    return digests


def test_campaign_csvs_match_pins(tmp_path, capsys):
    assert campaign_csvs(tmp_path) == CSV_PINNED
