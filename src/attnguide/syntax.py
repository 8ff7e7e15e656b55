"""Prompt tokenization and noun/verb pair extraction.

A prompt's tokens are its words, and token i is the i-th word.  Prompts follow
the benchmark template "a(n) <subject> is <motion> and a(n) <subject> is
<motion> ...", and each clause gives one pair.  A clause ends at "and", or
before an article that opens a further subject ("a man is walking, a dog is
running") once the clause holds an action word.  Its noun is the last word of
the noun phrase after an article, which ends at the copula, the first action
word (a lexicon action or any "-ing" word) or its first lexicon subject ("a
tall man", "a man with a hat"); else the first lexicon subject; else the first
word before the copula that is not an article.  Its verb is the action word
right after the copula, else the first action word that is not the noun.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from importlib import resources

from .errors import ContractError, ExtractionError, InputError

_ARTICLES = {"a", "an", "the"}
_COPULAS = {"is", "are", "was", "were"}


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
    """The prompt's words, as `words` gives them; token i is the i-th word."""
    if not prompt or not prompt.strip():
        raise InputError("prompt is empty")
    found = words(prompt)
    if not found:
        raise InputError("prompt contains no words after normalization")
    return found


def words(text):
    """The whitespace-split, punctuation-stripped, lowercased words of `text`."""
    return [w for w in (raw.strip(string.punctuation) for raw in text.lower().split()) if w]


def _split_clauses(tokens):
    """The clauses of `tokens`, as the module docstring splits them, as lists of (index, word)."""
    clauses, current = [], []
    for k, word in enumerate(tokens):
        if word == "and" or (word in _ARTICLES and any(_is_action(w) for _, w in current)
                             and _opens_subject(tokens, k)):
            if current:
                clauses.append(current)
            current = []
        if word != "and":
            current.append((k, word))
    if current:
        clauses.append(current)
    return clauses


def _opens_subject(tokens, k):
    """Whether the article at `k` opens a noun phrase, read as `_find_noun` reads it, of at
    least one word that a copula or an action word follows ("a dog is running")."""
    for j in range(k + 1, len(tokens)):
        if tokens[j] in _COPULAS or _is_action(tokens[j]):
            return j > k + 1
        # the phrase ends at its first lexicon subject; the scan stops at "and" or an article
        if tokens[j - 1] in _SUBJECTS or tokens[j] == "and" or tokens[j] in _ARTICLES:
            return False
    return False


def _is_action(word):
    return word in _ACTIONS or word.endswith("ing")


def _find_noun(clause):
    # template position: the last word of the noun phrase after an article
    for k, (_, word) in enumerate(clause):
        if word in _ARTICLES:
            noun = None
            for i, nxt in clause[k + 1:]:
                if nxt in _COPULAS or _is_action(nxt):
                    break
                noun = i
                if nxt in _SUBJECTS:  # "a man with a hat": the phrase ends at "man"
                    break
            if noun is not None:
                return noun
    for i, word in clause:
        if word in _SUBJECTS:
            return i
    # last resort: first word before the copula that is not an article
    for i, word in clause:
        if word in _COPULAS:
            break
        if word not in _ARTICLES:
            return i
    return None


def _find_verb(clause, noun_index):
    for k, (_, word) in enumerate(clause):
        if word in _COPULAS and k + 1 < len(clause) and _is_action(clause[k + 1][1]):
            return clause[k + 1][0]
    for i, word in clause:
        if i != noun_index and _is_action(word):
            return i
    return None


def extract_pairs(tokens):
    """One (noun, verb) pair per clause, over the prompt's token indices."""
    clauses = _split_clauses(tokens)
    pairs = []
    for clause in clauses:
        noun = _find_noun(clause)
        verb = _find_verb(clause, noun)
        if noun is None or verb is None or noun == verb:
            words = " ".join(w for _, w in clause)
            raise ExtractionError(f"cannot resolve a noun/verb pair in clause: '{words}'")
        pairs.append((noun, verb))
    if not pairs:
        raise ExtractionError("prompt has no noun/verb pair")
    return SyntaxPairs(pairs, frozenset(range(len(tokens))))
