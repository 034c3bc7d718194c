import pytest

from oracles import naive_gen_corpus
from parity_grid import CORPUS_GRID, SEED_63
from selfspec.corpus import gen_corpus
from selfspec.errors import ConfigError
from selfspec.seeding import derive, fold


class TestFold:
    @pytest.mark.parametrize("seed", (0, 7, SEED_63))
    def test_derive_is_fold_of_a_prefix(self, seed):
        labels = ("markov", 3, 250, 2)
        for cut in range(len(labels) + 1):
            assert fold(derive(seed, *labels[:cut]), *labels[cut:]) == derive(seed, *labels)


class TestGenCorpus:
    @pytest.mark.parametrize("vocab,n_seqs,len_range,seed", CORPUS_GRID, ids=str)
    def test_equals_the_per_token_oracle(self, vocab, n_seqs, len_range, seed):
        assert gen_corpus(vocab, n_seqs, len_range, seed) == naive_gen_corpus(
            vocab, n_seqs, len_range, seed
        )

    def test_lengths_and_ids_in_range(self):
        seqs = gen_corpus(5, 40, (2, 9), 3)
        assert {len(s) for s in seqs} <= set(range(2, 10))
        assert all(0 <= t < 5 for s in seqs for t in s)

    @pytest.mark.parametrize("args", [
        (8, 1, (1, 4)), (8, 1, (5, 4)), (8, 0, (2, 4)), (1, 1, (2, 4)),
    ], ids=["lo_below_2", "hi_below_lo", "no_seqs", "vocab_1"])
    def test_bad_arguments_are_config_errors(self, args):
        with pytest.raises(ConfigError):
            gen_corpus(*args, seed=0)
