"""Lint output is pinned byte for byte.

For every registry benchmark and ``examples/programs/wordcount.mj``,
with all rules, the SHA-256 of the text (``--explain``), JSON and
SARIF renderings must match the digests below. A refactor of the
static analyses under the linter must leave every one unchanged; a
change that means to move a finding updates the digest and says why.

Regenerate a digest by rendering the same result and hashing it:
``hashlib.sha256(render(result, fmt, explain=fmt == "text").encode())``.
"""

import hashlib
from pathlib import Path

import pytest

from repro.benchmarks.registry import all_benchmarks
from repro.lint import lint_program, render
from repro.runtime.library import link

EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "programs" / "wordcount.mj"
FORMATS = ("text", "json", "sarif")

# name -> (text, json, sarif) digests.
DIGESTS = {
    "analyzer": (
        "bf2a1553805974e571e85c963394375038add91c5ac2c62f4ce280b9340396bb",
        "5ac2173dab6f48b2cc8378a13376cf3b693f3be5e250b6930b85f1c138d5337a",
        "a8360762e8b48e9d72ca3aaa8781a8c915ea18a27ab509e048e9bfca8242a172",
    ),
    "cache": (
        "29179fbf85e84934741a23babaee3ee047e1d6258a0277b9953f8482251ccd94",
        "c100b9caa74d0cb3fecad7550bcd22f3e0beb34490a29a6213292bdec91ab9a5",
        "46dda5a34447653d6fc26692e2496eb2557756b5982634b64fa2ccacfa0389c8",
    ),
    "db": (
        "a9a23e0642f3bb0d5798020ad3158746c1c18eb301596fc4aa2479a447a829be",
        "67218c5f1180f08c63a552aa9d73af3c5469de375734b03de2e1fcfaf729d975",
        "52310c7c52bba61ef6d3b3bae44866391be10bb99d09500795ef5c1e8ab87e53",
    ),
    "euler": (
        "7634de7188d4960b61d4da7f02f8158769b4ed464360e99cf8cc53cb29b858a8",
        "3bc4d66a582617273de1cbc9e11a77decc1843b774e73dd7c343068785e5857c",
        "53341419bbd01b1a20597a41cc0b02be52cab5bb8c4697d067a310f8af331994",
    ),
    "jack": (
        "127268924e293e11e3467e0adba9aa92a351bee24c7975fc752ab4188fa87159",
        "9b58e72c54a8d035bb0d7d0b97f4a7d170b31ee3e5784fa4b3aafc04ee2ace11",
        "cf8ebfdcea44fe55ba4b3469b0908570bd02e60e8e182d9471285c1370cebb8d",
    ),
    "javac": (
        "a11d2f1b2ed685d8aa98cf725416c03071c437d5fdc608fe5a6bc3de848b1d94",
        "87d09de86e508860ca6da5c53964fb2e3d2694c54fc1c09781060355716262d5",
        "df8c87276ffe498eb606f76a37b7169ad5fa15b66f9bc09916e313b21db04af1",
    ),
    "jess": (
        "dda937035f444c23c99922f990a12156c17ce87be00b1ec8bf12a985555326c7",
        "010fc2195b8de83424dfa021e001eabe5a10a76979ce6a4a7517f2da9d4d2382",
        "ed028658cf16563a05f4f4eb810cc3372cead6b64be3a0d0b9ade474a389c6e5",
    ),
    "juru": (
        "3bf599ddd5d4ade10a488f5988b2fe1cf699ecceb719d7a5dfc9af6446cc8071",
        "5e1f75877196dd94d3c04fa0a822bb4a684bc88e9da853373b28e9754fe7ebce",
        "a26cf896105a393adf19240ed92dd41be478a153a7c882982e8498ed50dc9863",
    ),
    "mc": (
        "9ce7b17d239ac87034264b53a40d3f0c86405bf7ac6c94fec7d349ee5de5163b",
        "be960ed3528a0d4fcef4cce6aee067256747220420440187f30998347c55d6af",
        "fc6a88149a24ccdd5ca7bebd84a17b014b875efe811e94d717ff5ae8f5fd43a5",
    ),
    "raytrace": (
        "294f5e46096508cf7b6f054b301511c950ea1627c06a814699bf01be61558ee7",
        "4d3d0a315ad799be1624903af0c914d18f509f52c5c3a5e1f68281d9cca1a6e8",
        "d004701c7458e7cd8f172ff486f7219d4417182be86762974a74c8c16294318d",
    ),
    "strings": (
        "3f142b5d8ea4cb434679a3102be393d622729ed68e8a8c5ef52292c584cddedf",
        "df9aec7d7bf928e73e4d65ff6e1c5275a6e4f257b35a669ffd8761dd597ef5c1",
        "bf55d212440c1c5824c197b28489ceca37dfba77d71ccacc2f192be025561ac6",
    ),
    "wordcount": (
        "7d484bc47c4cf4005631171ea1270082852a9a9340763c35d345e11411028941",
        "b5ef175168d91d88e3e67a1df16c6d587c7c7277a276cfffb5db2847681f9874",
        "fff2674d315226f2ed1cd7651d05b89c86fa91dc832cc2c086789fd4837f86fc",
    ),
}


def _program(name):
    if name == "wordcount":
        return link(EXAMPLE.read_text(encoding="utf-8")), "WordCount"
    bench = all_benchmarks()[name]
    return link(bench.original), bench.main_class


def test_every_registry_benchmark_is_pinned():
    assert set(DIGESTS) == set(all_benchmarks()) | {"wordcount"}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_lint_output_matches_its_digests(name):
    program, main_class = _program(name)
    result = lint_program(program, main_class, program_path=f"{name}.mj")
    got = tuple(
        hashlib.sha256(render(result, fmt, explain=fmt == "text").encode("utf-8")).hexdigest()
        for fmt in FORMATS
    )
    assert got == DIGESTS[name], name
