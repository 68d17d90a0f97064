import hashlib
import json

import pytest

from epistab import covid, paper_check, seir
from epistab.lozinskii import MeasureKind
from epistab.stability import (
    cardano,
    cubic_stability,
    hurwitz_exact,
    li_wang_exact,
    li_wang_sufficient,
)


def _matrix():
    p = covid.table_params(0.1)
    return covid.jacobian_closed(p, covid.endemic(p).state)


def _claims(note):
    claims = paper_check.build_report(covid.table_params(0.1))
    chosen = [c for c in claims if bool(c.note) == note]
    assert chosen  # the report holds claims both with and without a note
    return chosen


# every result record that leaves the program as JSON, built at fixed inputs
RECORDS = {
    "verdict-hurwitz": lambda: [hurwitz_exact(_matrix())],
    "verdict-li-wang-exact": lambda: [li_wang_exact(_matrix())],
    **{f"verdict-li-wang-{kind.value}": (lambda kind=kind: [li_wang_sufficient(_matrix(), kind)])
       for kind in MeasureKind},
    "verdict-cubic": lambda: [cubic_stability(3.0, 3.0, 1.0), cubic_stability(1.0, 2.0, 3.0)],
    "cubic-three-real": lambda: [cardano(1.0, -6.0, 11.0, -6.0)],
    "cubic-complex-pair": lambda: [cardano(2.0, 1.0, 3.0, -4.0)],
    "dfe-determinant": lambda: [covid.det_jp0(covid.table_params(b)) for b in (0.1, 0.6)],
    "equilibria-covid": lambda: [covid.dfe(covid.table_params(0.1)),
                                 covid.endemic(covid.table_params(0.1))],
    "equilibria-seir": lambda: [seir.dfe3(seir.figure_params()),
                                seir.endemic3(seir.figure_params())],
    "claims-with-note": lambda: _claims(note=True),
    "claims-without-note": lambda: _claims(note=False),
    "params": lambda: [covid.table_params(0.1), seir.figure_params()],
}

# SHA-256 of the sort-keyed JSON of each list of ``to_dict`` results
RECORD_SHA256 = {
    "claims-with-note": "1e3c9748cad1fe8971a958bedc89cd32bddf263da1d96b2d467367ba8d3f87fe",
    "claims-without-note": "f10d7d299245c1c04f0c204335d37f0f652b84d150e2b64eec0b2b42f97c594f",
    "cubic-complex-pair": "8259e999e5f0667a9060b53d4a950974f67abc2db9c0ba47e9393c6305f361b6",
    "cubic-three-real": "ee4bd3c47955db2d77d791125df3e12b84f57e4508ec7d51ccc9bd872e4f1d78",
    "dfe-determinant": "21c2d5f25e184b47b6ec5d95ea50f30b3a6db63c202b8001cfa1efc4d9fa92ea",
    "equilibria-covid": "5756c5c09d3463685ace9083dc0d7d1d0e77da6e0baa4a6277b893c89669af21",
    "equilibria-seir": "51286bac6d22bd56e258162216525e3cef81ff22dbd6413f41442d186b186b41",
    "params": "e995ef1c29cf648ddac9cfdc87a1f0a6009e247228f9c33538401772571e767a",
    "verdict-cubic": "4949c81469b73eeef26618273e194b3ca00f1ff07ebf6e323bb85cea305bf4b9",
    "verdict-hurwitz": "85949e85cbbb0b532ebba9fc46582753a78d7b437cb97ceb1a88682849401766",
    "verdict-li-wang-exact": "35a77cf3831e8b52253a1d292501422bc44fe7f583826da2ced29f95b0983d7a",
    "verdict-li-wang-inf": "208e4e2e1b75c0ced9ceb0235ec9556d0658617d6a11ea3f5977a5890e1e822e",
    "verdict-li-wang-one": "12bfe0e3e5b162b7910aa7bff7dba30eb5b68578f6f22ac428e774a3d4be170c",
    "verdict-li-wang-two": "3b8dfc380ccf5bf0dc82b79ce232a47cd013f2aa9eeac67e9b6a903f96e6b89d",
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_to_dict_golden_digests(name):
    dicts = [r.to_dict() for r in RECORDS[name]()]
    text = json.dumps(dicts, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == RECORD_SHA256[name]
