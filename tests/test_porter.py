"""Stemmer checks against the published rule-by-rule example pairs,
carried through the full pipeline by hand.
"""

import hashlib
import random
import string

import pytest

from pqlm.porter import stem

# (word, stem) pairs: the per-step examples from the algorithm's original
# description, hand-propagated through the remaining steps, plus the two
# fully chained examples it spells out end to end.
VECTORS = [
    ("caresses", "caress"), ("ponies", "poni"), ("ties", "ti"),
    ("caress", "caress"), ("cats", "cat"),
    ("feed", "feed"), ("agreed", "agre"), ("plastered", "plaster"),
    ("bled", "bled"), ("motoring", "motor"), ("sing", "sing"),
    ("conflated", "conflat"), ("troubled", "troubl"), ("sized", "size"),
    ("hopping", "hop"), ("tanned", "tan"), ("falling", "fall"),
    ("hissing", "hiss"), ("fizzed", "fizz"), ("failing", "fail"),
    ("filing", "file"),
    ("happy", "happi"), ("sky", "sky"),
    ("relational", "relat"), ("conditional", "condit"), ("rational", "ration"),
    ("valenci", "valenc"), ("hesitanci", "hesit"), ("digitizer", "digit"),
    ("conformabli", "conform"), ("radicalli", "radic"),
    ("differentli", "differ"), ("vileli", "vile"), ("analogousli", "analog"),
    ("vietnamization", "vietnam"), ("predication", "predic"),
    ("operator", "oper"), ("feudalism", "feudal"),
    ("decisiveness", "decis"), ("hopefulness", "hope"),
    ("callousness", "callous"), ("formaliti", "formal"),
    ("sensitiviti", "sensit"), ("sensibiliti", "sensibl"),
    ("triplicate", "triplic"), ("formative", "form"), ("formalize", "formal"),
    ("electriciti", "electr"), ("electrical", "electr"), ("hopeful", "hope"),
    ("goodness", "good"),
    ("revival", "reviv"), ("allowance", "allow"), ("inference", "infer"),
    ("airliner", "airlin"), ("gyroscopic", "gyroscop"),
    ("adjustable", "adjust"), ("defensible", "defens"), ("irritant", "irrit"),
    ("replacement", "replac"), ("adjustment", "adjust"),
    ("dependent", "depend"), ("adoption", "adopt"), ("homologou", "homolog"),
    ("communism", "commun"), ("activate", "activ"), ("angulariti", "angular"),
    ("homologous", "homolog"), ("effective", "effect"),
    ("bowdlerize", "bowdler"),
    ("probate", "probat"), ("rate", "rate"), ("cease", "ceas"),
    ("controll", "control"), ("roll", "roll"),
    ("generalizations", "gener"), ("oscillators", "oscil"),
    ("running", "run"), ("runner", "runner"),
]


@pytest.mark.parametrize("word,expected", VECTORS)
def test_published_vectors(word, expected):
    assert stem(word) == expected


def test_short_words_untouched_except_plural():
    assert stem("a") == "a"
    assert stem("be") == "be"
    assert stem("") == ""


def test_y_handling():
    # y after a consonant acts as a vowel; leading y is a consonant
    assert stem("happy") == "happi"
    assert stem("sky") == "sky"
    assert stem("enjoy") == "enjoi"


# every suffix a rule of some step tests for
RULE_SUFFIXES = (
    "sses", "ies", "ss", "s", "eed", "ed", "ing", "at", "bl", "iz", "y",
    "ational", "tional", "enci", "anci", "izer", "abli", "alli", "entli", "eli",
    "ousli", "ization", "ation", "ator", "alism", "iveness", "fulness", "ousness",
    "aliti", "iviti", "biliti", "icate", "ative", "alize", "iciti", "ical", "ful",
    "ness", "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize", "e", "ll",
)
# sha256 of the `word\tstem\n` lines of seeded_words(), recorded with the
# character-by-character stemmer that the table-driven one replaced
SEEDED_STEMS_SHA256 = "5a1be1bca9d476379834d0cbf5a123ac7806272a3346fd9fb8bf1b5821acb48f"


def seeded_words() -> list[str]:
    """A seeded list of over 200k words: random letters (lower and upper
    case), digits and y runs, ended by every rule suffix and every pair of
    them, plus short and suffix-free words."""
    rng = random.Random(1980)
    letters = string.ascii_lowercase * 4 + "y" * 8 + string.ascii_uppercase + string.digits

    def prefix(longest: int) -> str:
        word = "".join(rng.choice(letters) for _ in range(rng.randint(0, longest)))
        if rng.random() < 0.2:
            at = rng.randint(0, len(word))
            word = word[:at] + "y" * rng.randint(1, 4) + word[at:]
        return word

    words = [prefix(7) + first + last
             for last in RULE_SUFFIXES for first in ("",) + RULE_SUFFIXES
             for _ in range(40)]
    words += [prefix(12) for _ in range(60_000)]
    return words


def test_seeded_words_keep_their_stems():
    words = seeded_words()
    assert len(words) >= 200_000
    lines = "".join(f"{word}\t{stem(word)}\n" for word in words)
    assert hashlib.sha256(lines.encode()).hexdigest() == SEEDED_STEMS_SHA256
