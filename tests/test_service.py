"""Unit tests for the hosted three-party service layer."""

import numpy as np
import pytest

from repro.core.budget_estimation import AccuracyGoal
from repro.core.range_estimation import TightRange
from repro.datasets.table import DataTable
from repro.estimators.statistics import Mean
from repro.exceptions import GuptError
from repro.runtime.computation_manager import ComputationManager
from repro.runtime.service import ANALYST, OWNER, GuptService, QueryRequest


@pytest.fixture
def service():
    return GuptService(rng=0)


@pytest.fixture
def owner(service):
    return service.enroll(OWNER, name="hospital")


@pytest.fixture
def analyst(service):
    return service.enroll(ANALYST, name="researcher")


@pytest.fixture
def registered(service, owner, rng):
    ages = rng.normal(40, 10, size=3000).clip(0, 150)
    table = DataTable(ages, column_names=["age"], input_ranges=[(0.0, 150.0)])
    service.register_dataset(owner.token, "census", table, total_budget=5.0)
    return table


class TestConstruction:
    @pytest.mark.parametrize("execution", [{"backend": "serial"}, {"shards": 2}])
    def test_manager_and_execution_options_are_exclusive(self, execution):
        """A manager handed in is refused with backend/shards beside it,
        and stays open for its owner."""
        manager = ComputationManager(backend="remote", nodes=1)
        try:
            with pytest.raises(GuptError):
                GuptService(computation_manager=manager, **execution)
            assert not manager.sharded_backend._closed
            with GuptService(computation_manager=manager) as service:
                assert service._runtime.computation_manager is manager
        finally:
            manager.close()

    def test_backend_and_shards_build_the_manager(self):
        with GuptService(backend="vectorized", shards=3) as service:
            manager = service._runtime.computation_manager
            assert (manager.backend, manager.plan_shards) == ("vectorized", 3)


class TestEnrollment:
    def test_tokens_are_unique(self, service):
        a = service.enroll(ANALYST)
        b = service.enroll(ANALYST)
        assert a.token != b.token

    def test_unknown_role_rejected(self, service):
        with pytest.raises(GuptError):
            service.enroll("superuser")

    def test_unknown_token_rejected(self, service):
        with pytest.raises(GuptError):
            service.list_datasets("forged-token")


class TestOwnerInterface:
    def test_register_returns_public_description(self, service, owner, rng):
        table = DataTable(rng.uniform(size=(100, 2)))
        description = service.register_dataset(
            owner.token, "d", table, total_budget=3.0
        )
        assert description.num_records == 100
        assert description.num_dimensions == 2
        assert description.remaining_budget == 3.0
        assert not description.has_aged_data

    def test_analyst_cannot_register(self, service, analyst, rng):
        table = DataTable(rng.uniform(size=10))
        with pytest.raises(GuptError):
            service.register_dataset(analyst.token, "d", table, total_budget=1.0)

    def test_owner_registers_curator_held_dataset(self, rng):
        from repro.runtime.remote import local_node_cluster

        values = rng.uniform(0.0, 100.0, size=(600, 1))
        curated = [{"curated": values[:400]}, {"curated": values[400:]}]
        with local_node_cluster(2, curated=curated) as cluster:
            service = GuptService(
                ComputationManager(
                    backend="remote", nodes=cluster.addresses, shards=6
                ),
                rng=0,
            )
            try:
                owner = service.enroll(OWNER)
                analyst = service.enroll(ANALYST)
                registered = service.register_federated_dataset(
                    owner.token, "curated", total_budget=2.0,
                    input_ranges=[(0.0, 100.0)],
                )
                described = service.describe_dataset(analyst.token, "curated")
                with pytest.raises(GuptError):
                    service.register_federated_dataset(
                        analyst.token, "other", total_budget=1.0
                    )
            finally:
                service.close()
        assert registered.num_records == described.num_records == 600
        assert described.num_dimensions == 1
        assert described.remaining_budget == 2.0
        assert service.list_datasets(owner.token) == ["curated"]

    def test_owner_reads_ledger(self, service, owner, analyst, registered):
        service.execute(
            analyst.token,
            QueryRequest(
                dataset="census", program=Mean(),
                range_strategy=TightRange((0.0, 150.0)), epsilon=1.0,
                query_name="avg",
            ),
        )
        entries = service.ledger_entries(owner.token, "census")
        assert entries == [("avg", 1.0)]

    def test_analyst_cannot_read_ledger(self, service, analyst, registered):
        with pytest.raises(GuptError):
            service.ledger_entries(analyst.token, "census")


class TestAnalystInterface:
    def test_query_returns_private_value(self, service, analyst, registered):
        response = service.execute(
            analyst.token,
            QueryRequest(
                dataset="census", program=Mean(),
                range_strategy=TightRange((0.0, 150.0)), epsilon=2.0,
            ),
        )
        assert response.ok
        assert response.epsilon_charged == 2.0
        assert 20.0 < response.value[0] < 60.0

    def test_owner_cannot_query(self, service, owner, registered):
        with pytest.raises(GuptError):
            service.execute(
                owner.token,
                QueryRequest(
                    dataset="census", program=Mean(),
                    range_strategy=TightRange((0.0, 150.0)), epsilon=1.0,
                ),
            )

    def test_budget_refusal_is_structured_not_raised(self, service, analyst, registered):
        request = QueryRequest(
            dataset="census", program=Mean(),
            range_strategy=TightRange((0.0, 150.0)), epsilon=4.0,
        )
        assert service.execute(analyst.token, request).ok
        refused = service.execute(analyst.token, request)
        assert not refused.ok
        assert "budget exhausted" in refused.error
        assert refused.value == ()

    def test_unknown_dataset_is_structured_error(self, service, analyst):
        response = service.execute(
            analyst.token,
            QueryRequest(
                dataset="missing", program=Mean(),
                range_strategy=TightRange((0.0, 1.0)), epsilon=1.0,
            ),
        )
        assert not response.ok
        assert "missing" in response.error

    def test_broken_program_is_structured_error(self, service, analyst, registered):
        def broken(block):
            raise RuntimeError("always fails")

        response = service.execute(
            analyst.token,
            QueryRequest(
                dataset="census", program=broken,
                range_strategy=TightRange((0.0, 150.0)), epsilon=0.5,
            ),
        )
        assert not response.ok
        assert "every block" in response.error

    def test_describe_shows_remaining_budget(self, service, analyst, registered):
        before = service.describe_dataset(analyst.token, "census")
        service.execute(
            analyst.token,
            QueryRequest(
                dataset="census", program=Mean(),
                range_strategy=TightRange((0.0, 150.0)), epsilon=1.0,
            ),
        )
        after = service.describe_dataset(analyst.token, "census")
        assert after.remaining_budget == pytest.approx(before.remaining_budget - 1.0)

    def test_accuracy_goal_through_the_service(self, service, owner, analyst, rng):
        ages = rng.normal(40, 10, size=4000).clip(0, 150)
        table = DataTable(ages)
        service.register_dataset(
            owner.token, "aged-census", table, total_budget=5.0, aged_fraction=0.1
        )
        response = service.execute(
            analyst.token,
            QueryRequest(
                dataset="aged-census", program=Mean(),
                range_strategy=TightRange((0.0, 150.0)),
                accuracy=AccuracyGoal(rho=0.9, delta=0.1), block_size=40,
            ),
        )
        assert response.ok
        assert 0.0 < response.epsilon_charged < 5.0

    def test_list_datasets(self, service, analyst, registered):
        assert service.list_datasets(analyst.token) == ["census"]

    def test_failed_query_reports_rolled_back_epsilon(
        self, service, analyst, registered
    ):
        def broken(block):
            raise RuntimeError("always fails")

        before = service.describe_dataset(analyst.token, "census")
        response = service.execute(
            analyst.token,
            QueryRequest(
                dataset="census", program=broken,
                range_strategy=TightRange((0.0, 150.0)), epsilon=0.5,
            ),
        )
        after = service.describe_dataset(analyst.token, "census")
        assert not response.ok
        assert response.epsilon_rolled_back == 0.5
        # The pre-release failure returned its hold: nothing was spent.
        assert after.remaining_budget == before.remaining_budget

    def test_seeded_requests_are_reproducible(self, service, analyst, registered):
        request = QueryRequest(
            dataset="census", program=Mean(),
            range_strategy=TightRange((0.0, 150.0)), epsilon=0.5, seed=321,
        )
        first = service.execute(analyst.token, request)
        second = service.execute(analyst.token, request)
        assert first.ok and second.ok
        assert first.value == second.value  # bit-identical


class TestAsyncHandles:
    """submit/result/cancel: the scheduler threaded through the service."""

    def _request(self, seed=None, epsilon=0.5):
        return QueryRequest(
            dataset="census", program=Mean(),
            range_strategy=TightRange((0.0, 150.0)), epsilon=epsilon, seed=seed,
        )

    def test_submit_returns_handle_result_blocks(self, service, analyst, registered):
        handle = service.submit(analyst.token, self._request())
        assert handle.dataset == "census"
        assert handle.principal == "researcher"
        response = service.result(handle)
        assert response.ok
        assert 20.0 < response.value[0] < 60.0
        service.close()

    def test_submit_matches_execute_with_same_seed(
        self, service, analyst, registered
    ):
        direct = service.execute(analyst.token, self._request(seed=77))
        handle = service.submit(analyst.token, self._request(seed=77))
        scheduled = service.result(handle)
        assert direct.ok and scheduled.ok
        assert direct.value == scheduled.value  # bit-identical paths
        service.close()

    def test_owner_cannot_submit(self, service, owner, registered):
        with pytest.raises(GuptError):
            service.submit(owner.token, self._request())

    def test_cancel_before_dispatch_spends_nothing(
        self, service, analyst, registered
    ):
        import threading

        gate = threading.Event()

        def blocked(block):
            gate.wait(5.0)
            return float(np.mean(block))

        before = service.describe_dataset(analyst.token, "census")
        first = service.submit(analyst.token, QueryRequest(
            dataset="census", program=blocked,
            range_strategy=TightRange((0.0, 150.0)), epsilon=0.5,
        ))
        second = service.submit(analyst.token, self._request())
        cancelled = service.cancel(second)
        gate.set()
        assert cancelled
        refusal = service.result(second)
        assert not refusal.ok and "cancelled" in refusal.error
        assert service.result(first) is not None
        after = service.describe_dataset(analyst.token, "census")
        # Only the first (uncancelled) query could have spent budget.
        assert after.remaining_budget >= before.remaining_budget - 0.5
        service.close()

    def test_close_is_safe_without_scheduler(self, service):
        service.close()  # lazy scheduler never created; still clean

    def test_budget_refusals_structured_through_scheduler(
        self, service, analyst, registered
    ):
        handles = [
            service.submit(analyst.token, self._request(seed=i, epsilon=2.0))
            for i in range(4)
        ]
        responses = [service.result(h) for h in handles]
        succeeded = [r for r in responses if r.ok]
        refused = [r for r in responses if not r.ok]
        # 5.0 total budget fits exactly two 2.0-epsilon releases.
        assert len(succeeded) == 2
        assert len(refused) == 2
        assert all(r.error for r in refused)
        service.close()


class TestResultTimeoutSemantics:
    """The pinned result(timeout=...) contract (mirrored by HTTP poll).

    On expiry ``result`` **returns None and never raises**; the query is
    unaffected (still queued/running, no budget movement, no state
    change); any number of expired waits may precede the terminal
    response, which — once produced — is returned again on every later
    call.  ``timeout=0`` is a non-blocking poll.
    """

    def _slow_request(self, pause: float = 0.01):
        import time as _time

        def slow_mean(block):
            _time.sleep(pause)
            return float(np.mean(block))

        return QueryRequest(
            dataset="census", program=slow_mean,
            range_strategy=TightRange((0.0, 150.0)), epsilon=0.5,
            block_size=150, seed=5,  # 20 blocks -> >=50ms wall-clock
        )

    def test_expiry_returns_none_never_raises(self, service, analyst, registered):
        handle = service.submit(analyst.token, self._slow_request())
        assert service.result(handle, timeout=0.0) is None  # non-blocking poll
        assert service.result(handle, timeout=0.001) is None
        final = service.result(handle)  # no timeout: waits to terminal
        assert final is not None and final.ok
        service.close()

    def test_expired_waits_do_not_perturb_the_query(
        self, service, analyst, registered
    ):
        handle = service.submit(analyst.token, self._slow_request())
        polls = 0
        while service.result(handle, timeout=0.002) is None:
            polls += 1
            assert polls < 10_000, "query never settled"
        final = service.result(handle, timeout=0.0)
        assert final is not None and final.ok
        # Exactly one charge despite many expired waits.
        entries = [e for e in service.ledger_entries(
            service.enroll(OWNER, "auditor").token, "census"
        )]
        assert len(entries) == 1
        assert entries[0][1] == 0.5
        service.close()

    def test_settled_query_ignores_timeout(self, service, analyst, registered):
        request = QueryRequest(
            dataset="census", program=Mean(),
            range_strategy=TightRange((0.0, 150.0)), epsilon=0.5, seed=7,
        )
        handle = service.submit(analyst.token, request)
        final = service.result(handle)
        # timeout=0 on a settled query returns the response, not None —
        # and keeps returning the identical response forever.
        assert service.result(handle, timeout=0.0) == final
        assert service.result(handle, timeout=0.001) == final
        assert service.result(handle) == final
        service.close()

    def test_foreign_handle_raises_unknown(self, service, analyst, registered):
        from repro.exceptions import UnknownHandleError

        handle = service.submit(analyst.token, QueryRequest(
            dataset="census", program=Mean(),
            range_strategy=TightRange((0.0, 150.0)), epsilon=0.5,
        ))
        service.result(handle)
        other = GuptService(rng=0)
        with pytest.raises(UnknownHandleError):
            other.scheduler.state(handle)
        other.close()
        service.close()
