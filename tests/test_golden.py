"""Byte-identity of the command line output on the shipped atlas.

Each entry pins the SHA-256 of one command's exit code, stdout and stderr,
joined by NUL bytes. A change that alters any of them, even by one byte,
turns the test red; an intended output change updates the hash and says why.
"""

import hashlib

import pytest

from toricfano.cli import main

GOLDEN = {
    ("tsv", "list"): "62dc32e8a272172f706116e2c1945b0612f6b1842c225995ee73de0f79b83e1e",
    ("tsv", "show H1"): "07c4459145bab94001bd2debad57b7bdc53ead5734307dd34d14e5c86bee1cfe",
    ("tsv", "show M5"): "e38b120d880b0ac7f712f76766b7a2279abd98ed7679d11de5a717c50eb7cb1f",
    ("tsv", "show P4"): "deafbc51854820ad1db1d87727fbfcd42f8a3eb0dea3f4309e1a1f97f2e7c550",
    ("tsv", "ch2 H1"): "bf9bf2a12e74ee9836d2e6ade37e47176e6c35494f40c4fa8f948950262c471d",
    ("tsv", "ch2 R1 --surface 1,3"): "1ddb331011afdd3f52bba00d85ae91fe045e32d2c622a5c7ab00fc8b10fed95b",
    ("tsv", "ch2 124"): "985b4b433fa93a2b2b3ad3ba2a803bb9caf8093665db51c19147c2af21b15dfd",
    ("tsv", "classify --all"): "3130b2031a118d61685cfcd7ca5b967e0b1572671b34f3bb69df8dda651ac06b",
    ("tsv", "paper-table"): "8b8681c30c12e36ee0c1952f0c888c0ad9e00d40a996368fbd5f1851b557c4a9",
    ("tsv", "validate"): "f443b9826107bc8babf6e97552649b56e05291522abfa9ecb4a17b47bbed5998",
    ("json", "list"): "b0292bbe3c21afb7faa29f22d1e8ae7b789358519403140ac6787ef2b4b0c6fc",
    ("json", "show H1"): "07c4459145bab94001bd2debad57b7bdc53ead5734307dd34d14e5c86bee1cfe",
    ("json", "show M5"): "e38b120d880b0ac7f712f76766b7a2279abd98ed7679d11de5a717c50eb7cb1f",
    ("json", "show P4"): "deafbc51854820ad1db1d87727fbfcd42f8a3eb0dea3f4309e1a1f97f2e7c550",
    ("json", "ch2 H1"): "c16852fb7143133d2477feb246c2aebe7de2da6482d7c9ba7a84d4198708b82d",
    ("json", "ch2 R1 --surface 1,3"): "224f48127a5919f31bf7a8d83e35fd934bcaa86fe7cd735bbb8f807d13e47250",
    ("json", "ch2 124"): "ccbdebcdab4edef97a7217753f6fd5ab5a66a1e01757735dc6902731dc4726d6",
    ("json", "classify --all"): "da9f061372a2875c81c8c6014ad0b9c2aa48ac65bb2d28b6e9e72e4db6cc9499",
    ("json", "paper-table"): "a4767fca2732cb38bc048ea94ed4e3288922f3cb64cf9cbc8e90df184195e153",
    ("json", "validate"): "7ca2ae46cc24d7c2944ce681a0777b858147ef21efa28d613fa11c46e0281304",
}


@pytest.mark.parametrize(("fmt", "command"), sorted(GOLDEN))
def test_output_matches_its_pinned_hash(fmt, command, capsys):
    code = main(["--format", fmt, *command.split()])
    captured = capsys.readouterr()
    blob = f"{code}\0{captured.out}\0{captured.err}".encode()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN[fmt, command]


# P(1,1,1,1,2), whose cone (1, 2, 3, 5) has determinant -2, and a fan with
# v3 = v1 + v2, whose cones (1, 2, 3, 4) and (1, 2, 3, 5) are degenerate
REJECTED_EXAMPLES = (
    ("wp11112", ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, -1, -1, -2))),
    ("degenerate", ((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 0, 1), (-1, -1, -1, -1))),
)

# validate on the atlas of rejected_atlas(), recorded before the fan
# validator read its cone bases and wall relations in batches
REJECTIONS_GOLDEN = "ac8a792c780b8af6daa65e551ff4f952c5dc1fba8c5bcf220aa84cf2821c298a"


def rejected_atlas():
    """For each shipped record with declared collections, its first ray swap
    (i < j in lexicographic order) whose fan the validator rejects, then the
    two examples above."""
    from toricfano.atlas import AtlasDatabase, VarietyRecord, shipped_database
    from toricfano.fan import build_fan, validate_fan

    records = []
    for rec in shipped_database():
        if rec.collections is None or rec.collections_derived:
            continue
        for i in range(1, len(rec.rays)):
            for j in range(i + 1, len(rec.rays) + 1):
                rays = list(rec.rays)
                rays[i - 1], rays[j - 1] = rays[j - 1], rays[i - 1]
                if not validate_fan(build_fan(rays, rec.collections)).ok:
                    records.append(VarietyRecord(f"s_{rec.name}_{i}_{j}", tuple(rays), rec.collections))
                    break
            else:
                continue
            break
    records += [VarietyRecord(name, rays, ((1, 2, 3, 4, 5),)) for name, rays in REJECTED_EXAMPLES]
    return AtlasDatabase(tuple(records))


def test_validate_rejection_messages_match_their_pinned_hash(tmp_path, capsys):
    from toricfano.atlas import render

    atlas = rejected_atlas()
    # P4 is the one record whose every swap keeps a valid fan
    assert len(atlas) == 65 + 2
    path = tmp_path / "rejected.txt"
    path.write_text(render(atlas), encoding="utf-8")
    code = main(["validate", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    blob = f"{code}\0{captured.out}\0{captured.err}".encode()
    assert hashlib.sha256(blob).hexdigest() == REJECTIONS_GOLDEN


# repr of fan.lattice_key of each shipped record, in atlas order: the
# normal form that names a variety up to lattice automorphism
LATTICE_KEYS_GOLDEN = "a8f7990c8c887253c9bc3db5b45fcfe093ae8191ac7d5a4c2ed67d50c44e325b"


def test_lattice_keys_match_their_pinned_hash(database, fans):
    from toricfano.fan import lattice_key

    keys = [lattice_key(fans[rec.name]) for rec in database]
    assert len(keys) == 67
    assert hashlib.sha256(repr(keys).encode()).hexdigest() == LATTICE_KEYS_GOLDEN
