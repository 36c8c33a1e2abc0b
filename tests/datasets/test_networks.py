"""Tests for the 16 synthetic network models.

Each test asserts the structural phenomenon the paper reports for that
dataset — these are the properties the substitution argument of
DESIGN.md §2 rests on.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.datasets import networks as network_models
from repro.datasets.networks import (
    all_networks,
    build_c1,
    build_c5,
    build_network,
    build_r4,
    client_networks,
    router_networks,
    server_networks,
)
from repro.ipv6.eui64 import decode_ipv4_decimal_words
from repro.ipv6.prefix import count_prefixes
from repro.stats.entropy import nybble_entropies

#: src/ directory to expose on subprocess PYTHONPATH (the repro package
#: is importable here via PYTHONPATH=src, not an installed distribution).
_SRC_DIR = pathlib.Path(__file__).resolve().parents[2] / "src"


class TestRegistry:
    def test_all_networks_build(self):
        networks = all_networks()
        assert len(networks) == 16
        assert {n.name for n in networks} >= {"S1", "R1", "C1", "JP"}

    def test_categories(self):
        assert all(n.category == "server" for n in server_networks())
        assert all(n.category == "router" for n in router_networks())
        assert all(n.category == "client" for n in client_networks())

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            build_network("S9")

    def test_population_deterministic(self, jp_small):
        assert jp_small.population(seed=0) == jp_small.population(seed=0)

    def test_population_varies_with_seed(self, jp_small):
        assert jp_small.population(seed=0) != jp_small.population(seed=1)

    def test_population_stable_across_processes(self, jp_small):
        """Same seed ⇒ bit-identical population in a fresh interpreter.

        Regression: the per-network RNG key once came from built-in
        ``hash(name)``, which PYTHONHASHSEED randomizes per process, so
        every "seed=0" run drew a different population (and therefore
        different Table 4 counts).  Spawn subprocesses with two
        different hash seeds and compare digests.
        """
        expected = hashlib.sha256(
            jp_small.population(0).matrix.tobytes()
        ).hexdigest()
        script = (
            "import hashlib, sys;"
            "from repro.datasets.networks import build_japanese_telco;"
            f"net = build_japanese_telco(population_size={jp_small.population_size});"
            "sys.stdout.write("
            "hashlib.sha256(net.population(0).matrix.tobytes()).hexdigest())"
        )
        for hash_seed in ("17", "42"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                [str(_SRC_DIR)] + env.get("PYTHONPATH", "").split(os.pathsep)
            ).rstrip(os.pathsep)
            result = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
            )
            assert result.returncode == 0, result.stderr
            assert result.stdout.strip() == expected, (
                f"PYTHONHASHSEED={hash_seed}"
            )

    def test_sample_is_subset(self, jp_small):
        population = set(jp_small.population(0).to_ints())
        sample = jp_small.sample(100, seed=0)
        assert set(sample.to_ints()) <= population


class TestServerPhenomena:
    def test_s1_two_prefixes(self, s1_small):
        population = s1_small.population(0)
        assert count_prefixes(population.addresses(), 32) == 2

    def test_s1_variant_shares(self, s1_small):
        # B = 0x10 for ~78% of addresses (variant v1).
        population = s1_small.population(0)
        b_values = population.segment_values(9, 10)
        share = float(np.mean(b_values == 0x10))
        assert share == pytest.approx(0.778, abs=0.03)

    def test_s1_v1_iids_high_entropy(self, s1_small):
        # The dominant variant's G region is pseudo-random → entropy ~1
        # in the middle of the IID.
        population = s1_small.population(0)
        entropy = nybble_entropies(population)
        assert np.all(entropy[18:26] > 0.9)

    def test_s3_single_96_prefix(self, s3_small):
        population = s3_small.population(0)
        assert count_prefixes(population.addresses(), 96) == 1

    def test_s3_dense_host_space(self, s3_small):
        population = s3_small.population(0)
        hosts = population.segment_values(25, 32)
        assert int(hosts.max()) <= 0x7FFFF


class TestRouterPhenomena:
    def test_r1_point_to_point_iids(self, r1_small):
        population = r1_small.population(0)
        iids = population.segment_values(17, 32)
        assert set(int(v) for v in iids) == {1, 2}

    def test_r1_low_total_entropy(self, r1_small):
        # Paper: H_S = 4.6 for R1 — ours must be of the same order,
        # far below a client set's ~21.
        entropy = float(nybble_entropies(r1_small.population(0)).sum())
        assert entropy < 8

    def test_r4_iids_decode_to_ipv4(self):
        population = build_r4(population_size=3000).population(0)
        iids = population.segment_values(17, 32)
        for iid in iids[:100]:
            text = decode_ipv4_decimal_words(int(iid))
            assert text is not None and text.startswith("10.")


class TestClientPhenomena:
    def test_c1_android_pattern_share(self):
        # 47% of IIDs end in 01 with D = 00000 (§5.4).
        population = build_c1(population_size=30000).population(0)
        last_byte = population.segment_values(31, 32)
        d_segment = population.segment_values(17, 21)
        pattern = (last_byte == 0x01) & (d_segment == 0)
        assert float(np.mean(pattern)) == pytest.approx(0.47, abs=0.02)

    def test_c1_pattern_dependency(self):
        # D=00000 and F=01 co-occur: P(F=01 | D=0) must be near 1.
        population = build_c1(population_size=30000).population(0)
        last_byte = population.segment_values(31, 32)
        d_segment = population.segment_values(17, 21)
        d_zero = d_segment == 0
        conditional = float(np.mean(last_byte[d_zero] == 0x01))
        assert conditional > 0.95

    def test_c1_high_total_entropy(self):
        # Paper: H_S = 21.2 for C1.
        population = build_c1(population_size=30000).population(0)
        entropy = float(nybble_entropies(population).sum())
        assert 15 < entropy < 26

    def test_c5_dense_64s(self):
        population = build_c5(population_size=30000).population(0)
        nets = population.segment_values(9, 16)
        assert int(nets.min()) >= 0x00040000
        assert int(nets.max()) <= 0x0008FFFF

    def test_clients_never_answer_pings(self):
        for network in client_networks():
            assert network.ping_rate == 0.0


class TestJapaneseTelco:
    def test_j_zeros_share(self, jp_small):
        # Fig. 1: segment J (bits 64-108) equals zeros for ~60%.
        population = jp_small.population(0)
        j_values = population.segment_values(17, 27)
        assert float(np.mean(j_values == 0)) == pytest.approx(0.60, abs=0.03)

    def test_j_dependency_on_c(self, jp_small):
        # When J = 0...0, C must equal 0x10 (the "static" plan).
        population = jp_small.population(0)
        j_values = population.segment_values(17, 27)
        c_values = population.segment_values(11, 12)
        zero_rows = j_values == 0
        assert np.all(c_values[zero_rows] == 0x10)

    def test_single_40_prefix(self, jp_small):
        population = jp_small.population(0)
        assert count_prefixes(population.addresses(), 40) == 1


#: sha256 of each network's population matrix at ``PIN_SIZE`` rows, per
#: ``name/seed``.  Every sampler runs at this size, so a rewrite of
#: :mod:`repro.datasets.parts` that moves any RNG draw shows here.
PIN_SIZE = 2000
POPULATION_PINS = {
    "S1/0": "aae6269a5d0e845bc3efbb48fa17472a988509dc35323404be5e91bfeb120cec",
    "S1/3": "62cac72c838a42116f056dd13af40f06ed2ddbc017a9e0679b7559378240748e",
    "S2/0": "ee43782a41473e1bdbbfd88602090f78b31840d71d5d390b5e971146f11aa64c",
    "S2/3": "aecd2bd3975ba3367c4bd4c4d740a485846c309bbf1296414d6d4a1171bc68c3",
    "S3/0": "7e0a7ea6a5258a9e4d587aa026fff90ec3f6d2be795e4ac9f3b20ff685b1201d",
    "S3/3": "00022b75dc280ec48eede8a0f105f937150ce87422a43b900cea3bf7f0db489b",
    "S4/0": "ebc06b04ce859d94cba489f8fa11f8fa22eb87668460122c3fcadeb872034393",
    "S4/3": "a357e6b869c5781728bedc293ca8720812e0284d856ca13428dd8ac98ebefc3a",
    "S5/0": "14ea45188507699d61c3f32f763fa38ee1615d63ea4d92b470884cc47fbf1694",
    "S5/3": "98673cb556374359538d94425df1fefe2db5fa8b7b5781ec38b34e5d44d74eb2",
    "R1/0": "942a88e6e82d307a3869e8d8d7c95bc74f9b0f5906391e985304fa409a46422d",
    "R1/3": "071f353f366bbb6d5491d24c6fa1b7183a6ab1758586153881237c5edbecbe64",
    "R2/0": "b4f763197d280d6a274baf7654708250974f1c461757ba1b3427ffab4394831e",
    "R2/3": "c86492a832321b37de44ef1499407e8b3ffb8d50b6da9b1eca87655c22293135",
    "R3/0": "a624175f2f924509a8738c8fd5551be70cd59ec3cf818dac11da755ea00e6be7",
    "R3/3": "46e07e02d12d2022c25097c12cb24d9ed98f9746469c9e68b06ac25be45d56cb",
    "R4/0": "c32ff863b5d5efda5e0897682700efa5e13650002d514dae49962cb823e8dbfb",
    "R4/3": "9cad515a08efc3e85ef1005c3b4972875f2b4b2ef66e3c41288fc760bc4360d5",
    "R5/0": "7d5f4bd7971f291e057b618729ac8953e83262b2a6e303025b5140273a19494e",
    "R5/3": "cc4b360bf43a591e931156724af1ce1044a6a0e6d0e06b578f3acbe068a4c78e",
    "C1/0": "e9ffda51dd0667ecae304331ac1406088033bac465b5ec73cf59782e26320066",
    "C1/3": "56e0960e35d33e034c37dfee12870e74ea3bf16870b1b05c77c67cb5da1a2937",
    "C2/0": "557b5c37c718f83bedc57b323db9afb59478a8bb57efa7208011bdf466f033bc",
    "C2/3": "6d9b8c66d31e3f2d16c88eb455c806c3a30cae887e40381ccfe76d75a4a338d1",
    "C3/0": "1f1e9591e4c012f5f1712ecafbbb5e2ffb5e84b35290de11f09439580bdd918d",
    "C3/3": "1bc04d3cc19e9994c1f912b330ba8cfc0258f657aee704b40cd881ade9f0d7c1",
    "C4/0": "14068e2786ae12dd058368cc958f002fb0e18197dfe70a42331d5e409f65266d",
    "C4/3": "cb8b1b72ebefcfc8ccefce6e47236d026c0373678b6277cbcbc4c4126bc190b5",
    "C5/0": "4bc17b2370fb7d51f333ea5d7b295be89f7a49a0826275c978a446a2e18d2b0b",
    "C5/3": "0b87e4d2349d0df24da61a05b443192668317b77e13ec110ab603d8be233ee13",
    "JP/0": "6a1f19356a027bbd59820bb79c24b03150b21ad950ae0c36a74d03af2450a679",
    "JP/3": "64c458d26b4744116e5351d98e8e573b69fdd94e9e7b893e5897a7423d5af39f",
}


def _pinned_network(name):
    if name == "JP":
        return network_models.build_japanese_telco(PIN_SIZE)
    return getattr(network_models, f"build_{name.lower()}")(PIN_SIZE)


@pytest.mark.parametrize("key", sorted(POPULATION_PINS))
def test_population_pinned(key):
    """Populations are the same bytes as when these digests were taken:
    every golden digest and scan count downstream rests on them."""
    name, seed = key.split("/")
    population = _pinned_network(name).population(int(seed))
    digest = hashlib.sha256(population.matrix.tobytes()).hexdigest()
    assert digest == POPULATION_PINS[key]
