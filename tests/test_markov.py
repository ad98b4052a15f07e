import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remest import (
    Distribution,
    DomainError,
    NegativeEntryError,
    ReducibleChainError,
    RowSumError,
    belief,
    matrix_power,
    stationary,
    symmetric_chain,
    symmetric_power_closed_form,
    validate_chain,
)

CHAIN_A = [[0.8, 0.2], [0.3, 0.7]]


def random_chain_strategy(max_n=4):
    def build(draw_rows):
        rows = np.array(draw_rows, dtype=float) + 1e-3
        return rows / rows.sum(axis=1, keepdims=True)

    return (
        st.integers(min_value=2, max_value=max_n)
        .flatmap(
            lambda n: st.lists(
                st.lists(
                    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                    min_size=n,
                    max_size=n,
                ),
                min_size=n,
                max_size=n,
            )
        )
        .map(build)
    )


class TestValidateChain:
    def test_accepts_reference_chain(self):
        chain = validate_chain(CHAIN_A)
        assert chain.n_states == 2
        assert np.allclose(chain.rows, CHAIN_A)

    def test_identity_is_reducible(self):
        with pytest.raises(ReducibleChainError):
            validate_chain(np.eye(2))

    def test_bad_row_sum(self):
        with pytest.raises(RowSumError):
            validate_chain([[0.5, 0.6], [0.3, 0.7]])

    def test_negative_entry(self):
        with pytest.raises(NegativeEntryError):
            validate_chain([[1.1, -0.1], [0.3, 0.7]])

    def test_rejects_non_square(self):
        with pytest.raises(DomainError):
            validate_chain([[0.5, 0.5]])


class TestMatrixPower:
    def test_power_one_is_the_matrix(self):
        chain = validate_chain(CHAIN_A)
        assert np.array_equal(matrix_power(chain, 1), chain.rows)

    def test_power_zero_is_identity(self):
        chain = validate_chain(CHAIN_A)
        assert np.array_equal(matrix_power(chain, 0), np.eye(2))

    def test_power_two_hand_computed(self):
        # Oracle: one explicit multiply of the 2x2 reference chain.
        chain = validate_chain(CHAIN_A)
        expected = np.array([[0.70, 0.30], [0.45, 0.55]])
        assert np.abs(matrix_power(chain, 2) - expected).max() < 1e-15

    def test_rows_converge_to_stationary(self):
        chain = validate_chain(CHAIN_A)
        p50 = matrix_power(chain, 50)
        assert np.abs(p50 - np.array([[0.6, 0.4], [0.6, 0.4]])).max() < 1e-10

    def test_memoized(self):
        chain = validate_chain(CHAIN_A)
        first = matrix_power(chain, 7)
        assert matrix_power(chain, 7) is first

    def test_negative_exponent_rejected(self):
        with pytest.raises(DomainError):
            matrix_power(validate_chain(CHAIN_A), -1)

    @settings(max_examples=30, deadline=None)
    @given(random_chain_strategy(), st.integers(0, 20), st.integers(0, 20))
    def test_power_semigroup(self, rows, m, n):
        chain = validate_chain(rows)
        lhs = matrix_power(chain, m + n)
        rhs = matrix_power(chain, m) @ matrix_power(chain, n)
        assert np.abs(lhs - rhs).max() < 1e-10

    @settings(max_examples=30, deadline=None)
    @given(random_chain_strategy(), st.integers(0, 40))
    def test_powers_stay_stochastic(self, rows, n):
        chain = validate_chain(rows)
        p = matrix_power(chain, n)
        assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-12
        assert p.min() >= -1e-15 and p.max() <= 1.0 + 1e-12


class TestStationary:
    def test_reference_chain(self):
        nu = stationary(validate_chain(CHAIN_A))
        assert np.abs(nu.probs - np.array([0.6, 0.4])).max() < 1e-10

    def test_symmetric_is_uniform(self):
        nu = stationary(symmetric_chain(3, 0.1))
        assert np.abs(nu.probs - 1.0 / 3).max() < 1e-12

    def test_three_state_fixed_point(self):
        # Oracle: independent dense linear solve of the balance equations.
        rows = np.array([[0.8, 0.1, 0.1], [0.3, 0.6, 0.1], [0.2, 0.1, 0.7]])
        a = (rows.T - np.eye(3))
        a[-1] = 1.0
        b = np.zeros(3)
        b[-1] = 1.0
        expected = np.linalg.solve(a, b)
        nu = stationary(validate_chain(rows))
        assert np.abs(nu.probs - expected).max() < 1e-12
        assert np.abs(nu.probs - np.array([0.55, 0.2, 0.25])).max() < 1e-12

    def test_periodic_chain_falls_back_to_solve(self):
        # Two-cycle: power iteration oscillates, the linear solve settles it.
        nu = stationary(validate_chain([[0.0, 1.0], [1.0, 0.0]]))
        assert np.abs(nu.probs - 0.5).max() < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(random_chain_strategy())
    def test_fixed_point_residual(self, rows):
        chain = validate_chain(rows)
        nu = stationary(chain).probs
        assert np.abs(nu @ chain.rows - nu).max() <= 1e-12


class TestSymmetricClosedForm:
    def test_n1_reproduces_rates(self):
        q = symmetric_power_closed_form(3, 0.1, 1)
        assert np.abs(np.diag(q) - 0.8).max() < 1e-15
        assert abs(q[0, 1] - 0.1) < 1e-15

    def test_n2_hand_computed(self):
        # Oracle: one explicit multiply of the rate-0.1 chain.
        q = symmetric_power_closed_form(3, 0.1, 2)
        assert np.abs(np.diag(q) - 0.66).max() < 1e-12
        assert abs(q[1, 2] - 0.17) < 1e-12

    def test_large_n_goes_uniform(self):
        q = symmetric_power_closed_form(3, 0.1, 500)
        assert np.abs(q - 1.0 / 3).max() < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            symmetric_power_closed_form(3, 0.4, 2)
        with pytest.raises(DomainError):
            symmetric_power_closed_form(3, 0.0, 2)

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(2, 5),
        st.floats(0.01, 1.0, allow_nan=False),
        st.integers(0, 50),
    )
    def test_matches_matrix_power(self, n_states, frac, n):
        sigma = frac / n_states
        chain = symmetric_chain(n_states, sigma)
        closed = symmetric_power_closed_form(n_states, sigma, n)
        assert np.abs(closed - matrix_power(chain, n)).max() < 1e-12


class TestBelief:
    def test_age_zero_point_mass(self):
        b = belief(validate_chain(CHAIN_A), 1, 0)
        assert np.array_equal(b.probs, [0.0, 1.0])

    def test_age_one_is_row(self):
        b = belief(validate_chain(CHAIN_A), 1, 1)
        assert np.abs(b.probs - np.array([0.3, 0.7])).max() < 1e-15

    def test_age_three_matches_closed_form(self):
        # Two-state closed form: P[X=1 | content 1, age t] = 0.4 + 0.6 * 0.5^t.
        chain = validate_chain(CHAIN_A)
        b = belief(chain, 1, 3)
        assert abs(b.probs[1] - (0.4 + 0.6 * 0.5**3)) < 1e-15
        assert abs(b.probs[0] - 0.525) < 1e-15

    def test_total_variation_decay(self):
        chain = validate_chain(CHAIN_A)
        nu = stationary(chain).probs
        tv = 0.5 * np.abs(belief(chain, 1, 12).probs - nu).sum()
        assert tv < 1e-2


class TestDistribution:
    def test_rejects_negative(self):
        with pytest.raises(NegativeEntryError):
            Distribution(np.array([-0.1, 1.1]))

    def test_rejects_bad_sum(self):
        with pytest.raises(RowSumError):
            Distribution(np.array([0.5, 0.6]))

    def test_argmax_lowest_index_on_tie(self):
        assert Distribution(np.array([0.5, 0.5])).argmax() == 0


class TestReferenceStateTies:
    def test_near_tie_goes_to_lowest_index(self):
        d = Distribution(np.array([0.3333333333333333, 0.3333333333333334, 0.33333333333333326]))
        assert d.argmax() == 0

    def test_symmetric_chain_reference_source_state(self, sym_model):
        assert sym_model.x_of[sym_model.ref_index] == 0
