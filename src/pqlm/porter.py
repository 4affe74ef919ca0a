"""Porter suffix-stripping stemmer (the classic 1980 algorithm).

Pure-string implementation with no dictionary assets.  Within each step the
first matching suffix wins; a matched suffix whose condition fails stops the
step without stemming, which is how the original rule lists are meant to be
read.

The conditions read one consonant/vowel signature of the word, a "c" or "v"
per letter (y is a vowel after a consonant), and the signature of a stem is
the prefix of the word's: m, the number of VC sequences in [C](VC)^m[V], is
the count of "vc" in it.
"""

_STEP2 = (
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
)
_STEP3 = (
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
)
_STEP4 = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)
_STEP2_ENDS = tuple(s for s, _ in _STEP2)
_STEP3_ENDS = tuple(s for s, _ in _STEP3)


# translates a word's ASCII encoding, with "?" for each other character, to
# its signature: aeiou to "v", any other character to "c", and y kept for
# its left neighbour to decide
_LETTERS = bytes(b"v"[0] if ch in "aeiou" else b"y"[0] if ch == "y" else b"c"[0]
                 for ch in map(chr, range(256)))


def _signature(word: str) -> bytes:
    sig = word.encode("ascii", "replace").translate(_LETTERS)
    if b"y" not in sig:
        return sig
    letters, prev = [], "v"  # a leading y is a consonant
    for ch in sig.decode():
        prev = ("c" if prev == "v" else "v") if ch == "y" else ch
        letters.append(prev)
    return "".join(letters).encode()


def _cvc(word: str, sig: bytes, n: int) -> bool:
    """*o: the stem word[:n] ends consonant-vowel-consonant, the last
    consonant not w, x or y."""
    return sig.endswith(b"cvc", 0, n) and word[n - 1] not in "wxy"


def _replace(word: str, sig: bytes, rules, ends) -> tuple[str, bytes]:
    """Steps 2 and 3: the first rule whose suffix ends the word, applied
    when the stem has m > 0.  No replacement holds a y, so its signature
    is its translation."""
    if word.endswith(ends):
        for suffix, replacement in rules:
            if word.endswith(suffix):
                n = len(word) - len(suffix)
                if sig.count(b"vc", 0, n):
                    return word[:n] + replacement, sig[:n] + _signature(replacement)
                break
    return word, sig


def stem(word: str) -> str:
    """Stem a single lowercase word."""
    # step 1a: sses -> ss, ies -> i, ss -> ss, s -> ""
    if word.endswith("s"):
        if word.endswith(("sses", "ies")):
            word = word[:-2]
        elif not word.endswith("ss"):
            word = word[:-1]
    sig = _signature(word)
    # step 1b: (m > 0) eed -> ee; (*v*) ed -> "", ing -> "", then tidy the stem
    if word.endswith(("ed", "ing")):
        if word.endswith("eed"):
            if sig.count(b"vc", 0, len(word) - 3):
                word, sig = word[:-1], sig[:-1]
        else:
            n = len(word) - (2 if word[-1] == "d" else 3)
            if b"v" in sig[:n]:
                word, sig = word[:n], sig[:n]
                if word.endswith(("at", "bl", "iz")):
                    word, sig = word + "e", sig + b"v"
                elif n >= 2 and word[-1] == word[-2] and sig.endswith(b"c"):
                    if word[-1] not in "lsz":
                        word, sig = word[:-1], sig[:-1]
                elif sig.count(b"vc") == 1 and _cvc(word, sig, n):
                    word, sig = word + "e", sig + b"v"
    # step 1c: (*v*) y -> i
    if word.endswith("y") and b"v" in sig[:-1]:
        word, sig = word[:-1] + "i", sig[:-1] + b"v"
    word, sig = _replace(word, sig, _STEP2, _STEP2_ENDS)
    word, sig = _replace(word, sig, _STEP3, _STEP3_ENDS)
    # step 4: (m > 1) drop the suffix; (m > 1 and *s or *t) drop ion
    if word.endswith(_STEP4):
        for suffix in _STEP4:
            if word.endswith(suffix):
                n = len(word) - len(suffix)
                if sig.count(b"vc", 0, n) > 1 and (suffix != "ion" or word[n - 1] in "st"):
                    word, sig = word[:n], sig[:n]
                break
    # step 5a: (m > 1) e -> ""; (m = 1 and not *o) e -> ""
    if word.endswith("e"):
        n = len(word) - 1
        m = sig.count(b"vc", 0, n)
        if m > 1 or (m == 1 and not _cvc(word, sig, n)):
            word, sig = word[:n], sig[:n]
    # step 5b: (m > 1 and *d and *l) -> single letter
    if word.endswith("ll") and sig.count(b"vc", 0, len(word) - 1) > 1:
        word = word[:-1]
    return word
