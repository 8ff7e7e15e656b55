import pytest

from attnguide import syntax
from attnguide.errors import ContractError, ExtractionError, InputError
from attnguide.syntax import SyntaxPairs, extract_pairs, tokenize


def test_tokenize_simple():
    toks = tokenize("a man is walking")
    assert [t.text for t in toks] == ["a", "man", "is", "walking"]
    assert [t.index for t in toks] == [0, 1, 2, 3]


def test_tokenize_two_clause_prompt():
    toks = tokenize("A man is walking and a dog is running")
    assert len(toks) == 9


def test_tokenize_strips_punctuation_and_case():
    toks = tokenize("A boy is walking, and a dog is sitting.")
    assert len(toks) == 9
    assert toks[1].text == "boy"


def test_tokenize_empty_rejected():
    with pytest.raises(InputError):
        tokenize("   ")


def test_pairs_two_clauses():
    toks = tokenize("a man is walking and a dog is running")
    pairs = extract_pairs(toks)
    assert pairs.pairs == [(1, 3), (6, 8)]


def test_pairs_single_clause_negatives():
    toks = tokenize("a cat is sitting")
    pairs = extract_pairs(toks)
    assert pairs.pairs == [(1, 3)]
    assert pairs.negatives_for((1, 3)) == frozenset({0, 2})


def test_compound_verb_object_is_negative_for_both_pairs():
    toks = tokenize("a woman is jumping and a boy is playing guitar")
    pairs = extract_pairs(toks)
    assert len(pairs.pairs) == 2
    guitar = [t.text for t in toks].index("guitar")
    for pair in pairs.pairs:
        assert guitar in pairs.negatives_for(pair)


def test_literal_negatives_include_other_pairs():
    toks = tokenize("a man is walking and a dog is running")
    pairs = extract_pairs(toks)
    assert 6 in pairs.negatives_for((1, 3))
    assert 8 in pairs.negatives_for((1, 3))


@pytest.mark.parametrize("prompt,k", [
    ("a cat is sitting", 1),
    ("a man is walking and a dog is running", 2),
    ("a girl is skateboarding and a kite is flying and a boy is jumping", 3),
])
def test_one_pair_per_clause(prompt, k):
    assert len(extract_pairs(tokenize(prompt)).pairs) == k


def test_partition_property():
    toks = tokenize("a man is walking and a dog is running")
    pairs = extract_pairs(toks)
    all_indices = {t.index for t in toks}
    for pair in pairs.pairs:
        assert set(pair) | set(pairs.negatives_for(pair)) == all_indices
        assert not set(pair) & set(pairs.negatives_for(pair))


def test_idempotent_over_round_trip():
    prompt = "a woman is jumping and a boy is playing guitar"
    toks = tokenize(prompt)
    pairs = extract_pairs(toks)
    again = extract_pairs(tokenize(" ".join([t.text for t in toks])))
    assert again.pairs == pairs.pairs
    assert again.tokens == pairs.tokens


def test_unresolvable_clause_reports_it():
    with pytest.raises(ExtractionError, match="the sky"):
        extract_pairs(tokenize("a dog is running and the sky"))


@pytest.mark.parametrize("prompt", ["and", "and and"])
def test_prompt_without_pairs_rejected(prompt):
    with pytest.raises(ExtractionError, match="no noun/verb pair"):
        extract_pairs(tokenize(prompt))


def test_syntax_pairs_hold_at_least_one_pair():
    with pytest.raises(ContractError, match="at least one noun/verb pair"):
        SyntaxPairs([], frozenset({0, 1}))


@pytest.mark.parametrize("prompt", [
    "a man is walking and a dog is running and a cat is sitting",
    "a man walking and a dog running",
    "the dog running and and a cat is jumping and a boy is playing guitar",
])
def test_no_token_index_in_two_pairs(prompt):
    """Each pair comes from its own "and" clause, and the clauses partition the tokens."""
    used = [i for pair in extract_pairs(tokenize(prompt)).pairs for i in pair]
    assert len(used) == len(set(used))


@pytest.mark.parametrize("prompt,pairs", [
    ("a tall man is walking and a small dog is running", [("man", "walking"), ("dog", "running")]),
    ("a big red ball is rolling", [("ball", "rolling")]),
    ("a dog with a man is running and a cat is sitting", [("dog", "running"), ("cat", "sitting")]),
    ("the man in a red car is driving", [("man", "driving")]),
    ("a zorblax is chasing a cat", [("zorblax", "chasing")]),
    ("a man walking and a dog running", [("man", "walking"), ("dog", "running")]),
    # no article: the lexicon's subject, else the first word before the copula
    ("man is walking and dog is running", [("man", "walking"), ("dog", "running")]),
    ("zorblax is walking", [("zorblax", "walking")]),
    # no copula: the first action word that is not the noun
    ("a man walking", [("man", "walking")]),
])
def test_noun_is_the_noun_phrase_last_word(prompt, pairs):
    toks = tokenize(prompt)
    assert [(toks[n].text, toks[v].text) for n, v in extract_pairs(toks).pairs] == pairs


def test_every_lexicon_template_prompt_pairs_by_position():
    """Each subject and action of the shipped lexicon in both clauses of the template."""
    subjects, actions = sorted(syntax._SUBJECTS), sorted(syntax._ACTIONS)
    article = {s: "an" if s[0] in "aeiou" else "a" for s in subjects}
    prompts = [f"{article[s]} {s} is {a} and {article[s2]} {s2} is {a2}"
               for s, s2 in zip(subjects, subjects[1:] + subjects[:1])
               for a, a2 in zip(actions, actions[1:] + actions[:1])]
    assert len(prompts) == 55 * 17
    for prompt in prompts:
        assert extract_pairs(tokenize(prompt)).pairs == [(1, 3), (6, 8)], prompt
