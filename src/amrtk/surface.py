"""Surface-form utilities shared by the aligner and the transition system:
negation words, number words and date recognition."""

import re

NEGATION_WORDS = frozenset({"no", "not", "never", "n't"})

NUMBER_WORDS = {
    "zero": "0", "one": "1", "two": "2", "three": "3", "four": "4",
    "five": "5", "six": "6", "seven": "7", "eight": "8", "nine": "9",
    "ten": "10", "eleven": "11", "twelve": "12", "thirteen": "13",
    "fourteen": "14", "fifteen": "15", "sixteen": "16", "seventeen": "17",
    "eighteen": "18", "nineteen": "19", "twenty": "20", "thirty": "30",
    "forty": "40", "fifty": "50", "sixty": "60", "seventy": "70",
    "eighty": "80", "ninety": "90", "hundred": "100", "thousand": "1000",
    "million": "1000000", "billion": "1000000000",
}

MONTH_NAMES = {
    "january": "1", "february": "2", "march": "3", "april": "4", "may": "5",
    "june": "6", "july": "7", "august": "8", "september": "9",
    "october": "10", "november": "11", "december": "12",
}

_YEAR_RE = re.compile(r"^\d{4}$")
_FULL_DATE_RE = re.compile(r"^(\d{4})-(\d{2})-(\d{2})$")


def numeric_form(token):
    """Canonical numeral for a token, if it has one (`two` -> `2`)."""
    lowered = token.lower()
    if lowered in NUMBER_WORDS:
        return NUMBER_WORDS[lowered]
    if re.fullmatch(r"\d+(\.\d+)?", token):
        return token.lstrip("0") or "0"
    return None


def date_attributes(tokens):
    """Date-entity attributes derivable from a token span.

    Recognizes 4-digit years, YYYY-MM-DD and month names; any other token
    falls back to an :opN string.  Returns (role, value) pairs.
    """
    out = []
    op_index = 1
    for token in tokens:
        match = _FULL_DATE_RE.match(token)
        if match:
            year, month, day = match.groups()
            out.append((":year", year))
            out.append((":month", month.lstrip("0") or "0"))
            out.append((":day", day.lstrip("0") or "0"))
        elif _YEAR_RE.match(token):
            out.append((":year", token))
        elif token.lower() in MONTH_NAMES:
            out.append((":month", MONTH_NAMES[token.lower()]))
        else:
            out.append((":op%d" % op_index, token))
            op_index += 1
    return out

