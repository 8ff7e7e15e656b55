"""Prompt tokenization and noun/verb pair extraction.

Prompts follow the benchmark template "a(n) <subject> is <motion> and a(n)
<subject> is <motion> ...", and each "and"-separated clause gives one pair.
Its noun is the last word of the noun phrase after an article, which ends at
the copula, the first action word (a lexicon action or any "-ing" word) or
its first lexicon subject ("a tall man", "a man with a hat"); else the first
lexicon subject; else the first word before the copula that is not an
article.  Its verb is the action word right after the copula, else the first
action word that is not the noun.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from importlib import resources

from .errors import ContractError, ExtractionError, InputError

_ARTICLES = {"a", "an", "the"}
_COPULAS = {"is", "are", "was", "were"}


@dataclass(frozen=True)
class Token:
    text: str
    index: int


@dataclass
class SyntaxPairs:
    """Noun/verb index pairs over the prompt's index set ``tokens``, at least one pair.

    The indices are token indices, or CA columns.  A pair's negatives U_i are
    every index of ``tokens`` outside it (a literal reading of "other words"),
    so members of other pairs repel each other.
    """

    pairs: list
    tokens: frozenset

    def __post_init__(self):
        if not self.pairs:
            raise ContractError("SyntaxPairs needs at least one noun/verb pair")

    def negatives_for(self, pair):
        return self.tokens - set(pair)


def _load_lexicon():
    text = resources.files("attnguide.data").joinpath("lexicon.txt").read_text()
    section, subjects, actions = None, set(), set()
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("["):
            section = line.strip("[]")
        elif section == "subjects":
            subjects.add(line)
        elif section == "actions":
            actions.add(line)
    return subjects, actions


_SUBJECTS, _ACTIONS = _load_lexicon()


def tokenize(prompt):
    """Whitespace-split, punctuation-stripped, lowercased tokens in order."""
    if not prompt or not prompt.strip():
        raise InputError("prompt is empty")
    found = words(prompt)
    if not found:
        raise InputError("prompt contains no words after normalization")
    return [Token(w, i) for i, w in enumerate(found)]


def words(text):
    """The whitespace-split, punctuation-stripped, lowercased words of `text`."""
    return [w for w in (raw.strip(string.punctuation) for raw in text.lower().split()) if w]


def _split_clauses(tokens):
    clauses, current = [], []
    for tok in tokens:
        if tok.text == "and":
            if current:
                clauses.append(current)
            current = []
        else:
            current.append(tok)
    if current:
        clauses.append(current)
    return clauses


def _is_action(word):
    return word in _ACTIONS or word.endswith("ing")


def _find_noun(clause):
    # template position: the last word of the noun phrase after an article
    for k, tok in enumerate(clause):
        if tok.text in _ARTICLES:
            noun = None
            for nxt in clause[k + 1:]:
                if nxt.text in _COPULAS or _is_action(nxt.text):
                    break
                noun = nxt.index
                if nxt.text in _SUBJECTS:  # "a man with a hat": the phrase ends at "man"
                    break
            if noun is not None:
                return noun
    for tok in clause:
        if tok.text in _SUBJECTS:
            return tok.index
    # last resort: first word before the copula that is not an article
    for tok in clause:
        if tok.text in _COPULAS:
            break
        if tok.text not in _ARTICLES:
            return tok.index
    return None


def _find_verb(clause, noun_index):
    for k, tok in enumerate(clause):
        if tok.text in _COPULAS and k + 1 < len(clause):
            nxt = clause[k + 1]
            if _is_action(nxt.text):
                return nxt.index
    for tok in clause:
        if tok.index != noun_index and _is_action(tok.text):
            return tok.index
    return None


def extract_pairs(tokens):
    """One (noun, verb) pair per "and"-separated clause, over the prompt's token indices."""
    clauses = _split_clauses(tokens)
    pairs = []
    for clause in clauses:
        noun = _find_noun(clause)
        verb = _find_verb(clause, noun)
        if noun is None or verb is None or noun == verb:
            words = " ".join(t.text for t in clause)
            raise ExtractionError(f"cannot resolve a noun/verb pair in clause: '{words}'")
        pairs.append((noun, verb))
    if not pairs:
        raise ExtractionError("prompt has no noun/verb pair")
    return SyntaxPairs(pairs, frozenset(t.index for t in tokens))
