import pytest

from chansel.phonemes import (
    BACKNESSES,
    CategoryTable,
    HEIGHTS,
    MANNERS,
    PLACES,
    Phoneme,
    ROUNDINGS,
    SILENCE_SYMBOL,
    VOICINGS,
    category_names,
)

# the 21 category rows of the grouped error-analysis report
REPORT_CATEGORIES = [
    "vowel", "consonant", "silence",
    "voiced", "voiceless",
    "manner_liquid", "manner_fricative", "manner_nasal", "manner_plosive",
    "place_bilabial", "place_alveolar", "place_labiodental", "place_velar",
    "vowel_high", "vowel_mid", "vowel_low",
    "vowel_front", "vowel_central", "vowel_back",
    "vowel_rounded", "vowel_unrounded",
]


def test_inventory_is_arpabet_39_plus_silence(table):
    assert len(table.symbols) == 40
    assert SILENCE_SYMBOL in table
    vowels = table.category_members("vowel")
    consonants = table.category_members("consonant")
    assert len(vowels) == 15
    assert len(consonants) == 24


def test_chart_examples(table):
    assert table.phoneme("B").categories() == {"consonant", "voiced", "manner_plosive",
                                               "place_bilabial"}
    assert table.phoneme(SILENCE_SYMBOL).categories() == {"silence"}
    assert table.phoneme("IY").categories() == {"vowel", "voiced", "vowel_high", "vowel_front",
                                                "vowel_unrounded"}


def test_member_examples(table):
    assert table.category_members("silence") == {SILENCE_SYMBOL}
    assert table.category_members("manner_nasal") == {"M", "N", "NG"}
    assert table.category_members("vowel_back") & table.category_members("vowel_front") == set()


def test_unknown_lookups_raise(table):
    with pytest.raises(KeyError, match="ZZ"):
        table.phoneme("ZZ").categories()
    with pytest.raises(KeyError, match="manner_click"):
        table.category_members("manner_click")


def test_kind_partitions_inventory(table):
    union = (
        table.category_members("vowel")
        | table.category_members("consonant")
        | table.category_members("silence")
    )
    assert union == set(table.symbols)
    assert not table.category_members("vowel") & table.category_members("consonant")


def test_manner_and_place_partition_consonants(table):
    consonants = table.category_members("consonant")
    for prefix, values in (("manner", MANNERS), ("place", ("bilabial", "alveolar",
                           "labiodental", "velar", "postalveolar", "glottal",
                           "labiovelar", "palatal"))):
        seen = []
        for value in values:
            seen.extend(table.category_members(f"{prefix}_{value}"))
        assert sorted(seen) == sorted(consonants), f"{prefix} classes must partition consonants"


def test_vowel_features_partition_vowels(table):
    vowels = table.category_members("vowel")
    for prefix, values in (("vowel", HEIGHTS), ("vowel", BACKNESSES), ("vowel", ROUNDINGS)):
        seen = []
        for value in values:
            seen.extend(table.category_members(f"{prefix}_{value}"))
        assert sorted(seen) == sorted(vowels)


def test_categories_and_members_are_mutually_consistent(table):
    for symbol in table.symbols:
        for name in table.names:
            in_members = symbol in table.category_members(name)
            in_categories = name in table.phoneme(symbol).categories()
            assert in_members == in_categories, (symbol, name)


def test_all_report_categories_exist(table):
    assert set(REPORT_CATEGORIES) <= set(table.names)


def test_category_names_in_report_order(table):
    # this order is the row order of per_category and worst_channel.csv
    assert category_names() == table.names == (
        "vowel", "consonant", "silence",
        "voiced", "voiceless",
        "manner_liquid", "manner_fricative", "manner_nasal", "manner_plosive",
        "manner_affricate", "manner_glide",
        "place_bilabial", "place_alveolar", "place_labiodental", "place_velar",
        "place_postalveolar", "place_glottal", "place_labiovelar", "place_palatal",
        "vowel_high", "vowel_mid", "vowel_low",
        "vowel_front", "vowel_central", "vowel_back",
        "vowel_rounded", "vowel_unrounded",
    )


def test_voicing_covers_vowels_and_consonants(table):
    voiced = table.category_members("voiced")
    voiceless = table.category_members("voiceless")
    assert voiced | voiceless == table.category_members("vowel") | table.category_members("consonant")
    assert not voiced & voiceless
    assert table.category_members("vowel") <= voiced


def test_csv_round_trip(table, tmp_path):
    path = tmp_path / "taxonomy.csv"
    header = "symbol,kind,voicing,manner,place,height,backness,rounding"
    lines = [header]
    for sym in table.symbols:
        ph = table.phoneme(sym)
        lines.append(",".join([
            ph.symbol, ph.kind, ph.voicing or "", ph.manner or "", ph.place or "",
            ph.height or "", ph.backness or "", ph.rounding or "",
        ]))
    path.write_text("\n".join(lines) + "\n")
    reloaded = CategoryTable.from_csv(path)
    assert reloaded.symbols == table.symbols
    for sym in table.symbols:
        assert reloaded.phoneme(sym).categories() == table.phoneme(sym).categories()


def test_custom_inventory_substitution(tmp_path):
    # the taxonomy ships as data so a user can swap in their own set
    path = tmp_path / "mini.csv"
    path.write_text(
        "symbol,kind,voicing,manner,place,height,backness,rounding\n"
        "PA,consonant,voiceless,plosive,bilabial,,,\n"
        "AH,vowel,voiced,,,mid,central,unrounded\n"
        "SIL,silence,,,,,,\n"
    )
    mini = CategoryTable.from_csv(path)
    assert mini.phoneme("PA").categories() == {"consonant", "voiceless", "manner_plosive",
                                               "place_bilabial"}
    assert mini.category_members("manner_nasal") == set()


def test_missing_csv_column_is_named(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text(
        "symbol,kind,voicing,manner,place,height,backness\n"
        "PA,consonant,voiceless,plosive,bilabial,,\n"
    )
    with pytest.raises(ValueError, match=f"phoneme table {path} lacks the column\\(s\\) "
                                         "rounding"):
        CategoryTable.from_csv(path)


def test_short_csv_row_names_the_file_and_line(tmp_path):
    path = tmp_path / "short_row.csv"
    path.write_text(
        "symbol,kind,voicing,manner,place,height,backness,rounding\n"
        "AH,vowel,voiced,,,mid,central,unrounded\n"
        "PA,consonant,voiceless\n"
    )
    with pytest.raises(ValueError, match=f"phoneme table {path} line 3 stops before the "
                                         "column\\(s\\) manner, place, height, backness, "
                                         "rounding"):
        CategoryTable.from_csv(path)


def test_invalid_csv_entry_names_the_table(tmp_path):
    path = tmp_path / "bad_entry.csv"
    path.write_text(
        "symbol,kind,voicing,manner,place,height,backness,rounding\n"
        "PA,consonant,voiceless,plosive,,,,\n"
    )
    with pytest.raises(ValueError, match=f"^phoneme table {path} PA: consonant needs one "
                                         "place, got None$"):
        CategoryTable.from_csv(path)


def test_phoneme_validation():
    with pytest.raises(ValueError, match="manner"):
        Phoneme("X", "consonant", voicing="voiced", place="velar")
    with pytest.raises(ValueError, match="height"):
        Phoneme("X", "vowel", voicing="voiced", backness="front", rounding="rounded")
    with pytest.raises(ValueError, match="no features"):
        Phoneme("X", "silence", voicing="voiced")
    with pytest.raises(ValueError, match="kind"):
        Phoneme("X", "tone")


VALID_FEATURES = {
    "consonant": {"voicing": "voiced", "manner": "plosive", "place": "bilabial"},
    "vowel": {"voicing": "voiced", "height": "mid", "backness": "central",
              "rounding": "unrounded"},
    "silence": {},
}
FIELD_VALUES = {"voicing": VOICINGS, "manner": MANNERS, "place": PLACES,
                "height": HEIGHTS, "backness": BACKNESSES, "rounding": ROUNDINGS}
SINGLE_FAULTS = [
    (kind, field, "missing" if field in own else "foreign")
    for kind, own in VALID_FEATURES.items() for field in FIELD_VALUES
]


@pytest.mark.parametrize("kind, field, fault", SINGLE_FAULTS)
def test_single_fault_names_its_field(kind, field, fault):
    Phoneme("X", kind, **VALID_FEATURES[kind])  # the base entry is valid
    features = dict(VALID_FEATURES[kind])
    if fault == "missing":
        features[field] = None
        expected = f"X: {kind} needs one {field}, got None"
    else:
        features[field] = FIELD_VALUES[field][0]
        expected = f"X: {kind} has no features of {field}, got {FIELD_VALUES[field][0]!r}"
    with pytest.raises(ValueError) as err:
        Phoneme("X", kind, **features)
    assert str(err.value) == expected


def test_duplicate_symbols_rejected():
    dup = [
        Phoneme("AH", "vowel", "voiced", height="mid", backness="central", rounding="unrounded"),
        Phoneme("AH", "vowel", "voiced", height="low", backness="central", rounding="unrounded"),
    ]
    with pytest.raises(ValueError, match="duplicate"):
        CategoryTable(dup)


def test_empty_inventory_rejected():
    with pytest.raises(ValueError, match="empty phoneme inventory"):
        CategoryTable([])
