"""Byte pins for the synthetic taxi generator.

The generator's output feeds the benchmark inputs, the stored bytes and
every seeded test, so each pinned config below is held to the SHA-256 of
every column's raw bytes.  A change that moves one draw, one operation
order or one rounding fails here.  The pins keep the ``-0.0`` headings
the rounding emits (see ``test_negative_zero_headings_are_kept``).
"""

import hashlib

import numpy as np
import pytest

from repro.data import FleetConfig, TaxiFleetGenerator, synthetic_shanghai_taxis
from repro.data.generator import SHANGHAI_EPOCH
from repro.data.record import FIELD_NAMES


def _fleet(**overrides):
    return TaxiFleetGenerator(FleetConfig(**overrides)).generate()


CONFIGS = {
    # The ``small_fleet`` fixture of test_generator.py.
    "small_fleet": lambda: _fleet(num_taxis=8, duration=4 * 3600.0, seed=11),
    "shanghai_20k_seed7": lambda: synthetic_shanghai_taxis(20_000, seed=7),
    "shanghai_100k_seed2014":
        lambda: synthetic_shanghai_taxis(100_000, seed=2014, num_taxis=500),
    # The benchmark's two inputs.
    "shanghai_1m_seed2014":
        lambda: synthetic_shanghai_taxis(1_000_000, seed=2014, num_taxis=500),
    "shanghai_1m_seed7":
        lambda: synthetic_shanghai_taxis(1_000_000, seed=7, num_taxis=500),
    "all_background": lambda: _fleet(
        num_taxis=6, duration=3 * 3600.0, background_probability=1.0, seed=5),
    "no_background": lambda: _fleet(
        num_taxis=6, duration=3 * 3600.0, background_probability=0.0, seed=5),
    # Off-cadence start, a window shorter than one interval: 7 fixes.
    "shorter_than_interval": lambda: _fleet(
        num_taxis=16, duration=20.0, start_time=SHANGHAI_EPOCH + 17.0, seed=3),
    # An interval that is not a whole number of seconds.
    "odd_interval": lambda: _fleet(
        num_taxis=5, duration=2 * 3600.0, sample_interval=7.3,
        start_time=SHANGHAI_EPOCH + 1.5, seed=21),
    "one_taxi": lambda: _fleet(num_taxis=1, duration=6 * 3600.0, seed=9),
}

PINS = {
    "small_fleet": (3832, {
        "oid": "43b79a76b2992e99886985648c72536560388503e847cd98356ca783a15fbb51",
        "t": "7f99dcb5c2be49268aff542ad9678790da7bb0777412dba3945154ab4f64ce28",
        "x": "b197b9994f48ca5244aaa7ad07d829f4cfa312d2cb7f6dc1871e1ea8b40d87e6",
        "y": "68ce6c147b1f33ca0888015d4049e773d1a22228c451a427563f13a00da3b051",
        "speed": "16771813fa53306394c9b6b49edc59c5335294c7fcab5ccc434e93031ffe54ec",
        "heading": "61639b06f0dd9bc824bb6fdcccaaa22863d48417813bd97b340d586b75aee223",
        "occupied": "32d63ed07f709bd54110da60c869ce0b08073fe1efd45173834e2d72edacc59b",
        "trip_id": "63d34d78b038115555493b6fcb25423b83a671566a27b65f0b51060ed79b6ee4",
        "odometer": "48589112a6306ffa770f5341fe3ac609ebb4b36950e862106730dc1f8092703c",
    }),
    "shanghai_20k_seed7": (20000, {
        "oid": "b29056fa6ea39b07a81204bddbc79a567b908ac929f654863d914a804e6699d9",
        "t": "ec614688d662a36ccd562de644e60ec2a6841ab65f0a771fd6ea6bdf0ca1f5c2",
        "x": "958c26d7a8faa41329cdd2747adc0ad5d1f38d25af961278c396101706f38eea",
        "y": "72ce63c490f6bde0f4aa8dc68e072a41cb39f4c5e877e2afbadbf4f4bb9ef469",
        "speed": "12859653bc8d362015c2dcc8375689517f031f34734985993555d68037fcb3eb",
        "heading": "7ddc594fe4b78fe6cf82f516bcd5099b580e2b0d7f87de98c91f67c4ee62f5d3",
        "occupied": "a04b38e919734e0709dac541ab8803a1ed8940d9457fc97063dfa5045c9ab78c",
        "trip_id": "a711fc59924f82d7ef7ce70c0af2cdcb8ec1a13f9fadc0972cb1e474bf08e611",
        "odometer": "48d1b26e2c9b98e34219655f3b140cbe7c0a2637854fd3f488927897210c9f45",
    }),
    "shanghai_100k_seed2014": (100000, {
        "oid": "4516e0bafb6b2491c55cd271a7f6039bde5715ad0902608f391e20758e3c6651",
        "t": "16169f6c12945023ecf878d33ae6e75270dc9d7b5a56c51617bc0b0cccb32a7b",
        "x": "6ff540d711fb1d66da8e877e255b75e6679eadf59470e3e33b6d597a3612e592",
        "y": "91fdf875fc05dec1362e18640890dc9c1326eb94dde7a72b96b325addf73b718",
        "speed": "3237cce0fd996f1e8148ae86d90dadd228abd86702a0094f7fbb0018193f102f",
        "heading": "6118cee4f6f15a422eaa69ea7829861681b9b7560eaad634b4d73529210fcd41",
        "occupied": "445b1865509163eab671f0269b50477731a0af6afad426965387448cf8a03684",
        "trip_id": "fe80b23514c2648b854fdf13a3abfdc5dd5b850621dfeacedb8cf76e214a9015",
        "odometer": "f3806ec7612424f0ade543b807e3cc483bdf89890e734ce77935b54192ddcd0d",
    }),
    "shanghai_1m_seed2014": (1000000, {
        "oid": "0d472c5ebcb3e2bb50de697210f41012d64fa7f5b2a1d9163964f2f0f119e972",
        "t": "920dbee90b9adece8931b1f8d3dccd61423c67b91b1be34748cfc9d5cd67a424",
        "x": "b81512fe6746d6e572341be77bde6f21db16b83fdb05272d34d8c2b7476e774b",
        "y": "f9badb4e680783c72315c231e24520bc9f5b4b20d04eb90b8aa8cf4067747f2f",
        "speed": "dbd79296a7bf3b2a675de6b56f4648382b0cd225a2039fa010e96569c25cd6cb",
        "heading": "e62f53e262596fd7189d291e2373e9d0457da0ca1e03c616bbdb1f83fbf77113",
        "occupied": "3dc67adb6897819074d431ea904783cc3bd992976882656bad680e67de7929c3",
        "trip_id": "a5cce04ffdb21d5b1d62aee64938197b6fa0799f22df001451f1e90fca843319",
        "odometer": "3d42be1d2de5c21b130fbb4c2b09e4e187af59c3bd1d405d7a044b3dec79c574",
    }),
    "shanghai_1m_seed7": (1000000, {
        "oid": "0d472c5ebcb3e2bb50de697210f41012d64fa7f5b2a1d9163964f2f0f119e972",
        "t": "920dbee90b9adece8931b1f8d3dccd61423c67b91b1be34748cfc9d5cd67a424",
        "x": "796a005473d48de91713b498fa97ec52a5f23c1c5623875d3c2fc2b806630f78",
        "y": "c0f6ebe4ecdf2d9a362e6b3ab3445e1f88244c3dd2a782358414ae2edb566861",
        "speed": "6b6a0e39cd765171527e9c2d43401575dcc37901514166e9a2f0da1cd6f40837",
        "heading": "12c0297853f0ec39490072e40880ede1be71039c59017a081f5529d275ce40c3",
        "occupied": "daa3a8c5bf303ab99b029dacf35e980964105ee4255acdb1681c167112bc2f52",
        "trip_id": "5f250576ccd78ab9f66cfec5d1d5b0736759b63114d57cd50cb7af0c107e25c8",
        "odometer": "ecf332887bffbb5c0df98cf3b005f2bb1ce95811fc9032fbe8de0da853172617",
    }),
    "all_background": (2154, {
        "oid": "11589aae2d6db935ca3ac0cb089ffaccc4c17dfc48ad1220e951823f0fc123fe",
        "t": "edf8717f356f2198376fb78ad50059a74d3962c73637c3a150d2d11fb18ec58b",
        "x": "fb7fc0f41e42c2d9b0d57a34fd5a640bafc0e1450c5f6ea5e5111448860eff78",
        "y": "1f455eddbf8ade28ddb282e6f558214593e57cfdd83113fd139326a0e18d5034",
        "speed": "f8be330549cc2c3fe1cf37a416249ea732908a1059c81f85fbe2bd1507dce14d",
        "heading": "91acdb7e4adc199b4cdc228c08cc2a442e26189a38d5d6dd7359243e895332bd",
        "occupied": "a274e09f42cb2896e53050a10964d5cf3acf9bf5adf1c48cde0a8d5032c26601",
        "trip_id": "10ee728fd906d27c9d4f2598a2d2d251bc051c699e0ea8d799be850c89aa6ef6",
        "odometer": "4f7a854adc36eed61a9ef8b7e4acd248ba2c2f1fae55613d4573cad054f017ee",
    }),
    "no_background": (2154, {
        "oid": "11589aae2d6db935ca3ac0cb089ffaccc4c17dfc48ad1220e951823f0fc123fe",
        "t": "edf8717f356f2198376fb78ad50059a74d3962c73637c3a150d2d11fb18ec58b",
        "x": "a9500173c2dde6b770678cb9ef248ff573be66c5700a06b9d5216ab33490288c",
        "y": "dca4be7f7cec63b633ab36dab2e6aa1985788ea6dd78b21ab9d9b2b7c29dec96",
        "speed": "e217bbdc218ad78eddc30b10971c841b0e6bc5f129b52e7baf2d118c46745174",
        "heading": "68281a2bff8caed90adb9f1e71cf6f09d64add1c5a218f32ca3d83298b506ae2",
        "occupied": "87f87d8d8585f373b51288e181f4a7bfddd545d5736d713c4218ca36ab53cd96",
        "trip_id": "df5a0fb2935048b54fded94c4dcc1f5a8451f8fa62c2e6439fe77f0499cb5628",
        "odometer": "79ed97c0d9c5f3af183259837f013b55aa5c2cf057d795f649c17a208acd2cc4",
    }),
    "shorter_than_interval": (7, {
        "oid": "66d1fad6ef3296ebd070e5e51e24cf73a16d59f1096a27e8e20ec60c9e8c42e8",
        "t": "a1d22436b2085fb1ef6e8ac9734fb282db09811ed327198ba2bbb36eda1249a8",
        "x": "afe7b5f92449f1240fa1771b322d6c1fe8e4fb4a4875965896b4115a000b60ce",
        "y": "fe383213b0600c6852bdde117c552a4973df2db0669d6f2559d54cbe73f2a2cc",
        "speed": "6ebcb6a47016c6067e8315c5999dc4e8b9c26a28c5236e57436d1bad60c79c80",
        "heading": "abbe279c049dc58d3fad78d82c70cfcdf4e752010249f9d7961bc1208582aa9a",
        "occupied": "837885c8f8091aeaeb9ec3c3f85a6ff470a415e610b8ba3e49f9b33c9cf9d619",
        "trip_id": "3addfb141cd7c9c4c6543a82191a3707ac29c7a041217782e61d4d91c691aee8",
        "odometer": "93f3b7555988f199f8f8728e35893254a108ff617bd2c5ffd853ddc085b516cd",
    }),
    "odd_interval": (4928, {
        "oid": "c86e2897908849343e39e483ed15f21b3d34b1e6b2380736ff930d81567be908",
        "t": "56421eb5ad2ecdfb372eddb30c83d592d0aacbb1139be3ed1bec0570767c7a0e",
        "x": "0063184a7ed9b8f0e6af9daff7c824826c3aac7ad811740ade06c8acabd0e9c3",
        "y": "e38f558eaaf6b7e014e59d9f8ae74852b1bb08407bf1e4705c7c7839cfb6abb7",
        "speed": "dfcf78c08fd7c3609a432db249b35bb0883115f568f54cd332e938440da55192",
        "heading": "f21fd8ac0b778515ca35bdbb4f7889101996bcceee380e0f821865626da8e628",
        "occupied": "ffb4ae1e4d0fae381b680bad1c3010aacc2821f290688df0851227d35c1a34dd",
        "trip_id": "f4b792452d792b7dbe32445b20d3da14e6c1ec25ad94cad0d76f729f83400120",
        "odometer": "5c376470d3d9a2c0c1691464563546b67d91ed3aa2adf8b66b12c40277abe5c9",
    }),
    "one_taxi": (719, {
        "oid": "e8063513aa25c895fae800a6413cb54987f4b2ad96d2b35eb3b6a1e3cafcafb3",
        "t": "18f9b770f9b4a6286d92884da8f178a19248393a2f5787f7ec019fb233fa8e29",
        "x": "e76cfc76189d658d9c2c55c04ab20c4e7c0fd0d04aca2558dfcb7d289d4869df",
        "y": "66c303716c30e587abfb36515fefe0ffe547f0c3164b69a47111926e4ccd9f0c",
        "speed": "8b9d8929ef4c990cf7dfa88a79619f49b0aa2bf97dd3b533bb6671838dbdd196",
        "heading": "ed4a9393fb454b7ddf0a2ef0636a139f346567e2119cd8e2ef99dc625d5f6d98",
        "occupied": "570f6ce0237d8ef020d32c54e2d0029e42a507507ec24552538d06433a152df7",
        "trip_id": "c271a8b6e2e32aebb48de2b3a0ecba553210fce6a3be8baf16d2cea7c96cac95",
        "odometer": "1072e488b90706da46b4e173fa6a74920c3c61346b33cc2eeb39a6ad17fb787b",
    }),
}


@pytest.mark.parametrize("name", list(CONFIGS))
def test_generated_bytes_are_pinned(name):
    data = CONFIGS[name]()
    n, digests = PINS[name]
    assert len(data) == n
    got = {
        column: hashlib.sha256(data.column(column).tobytes()).hexdigest()
        for column in FIELD_NAMES
    }
    assert got == digests


def test_negative_zero_headings_are_kept():
    # Rounding a small negative heading gives -0.0; mending that changes
    # every stored byte, so it waits for a benchmark re-baseline.
    heading = synthetic_shanghai_taxis(200_000, seed=2014, num_taxis=500).column("heading")
    assert int(((heading == 0) & np.signbit(heading)).sum()) == 193
