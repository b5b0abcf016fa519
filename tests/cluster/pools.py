"""Give one churn state chosen tenant task sets, through its own pool."""

from repro.cluster.events import TenantPool


def bind_tasksets(state, tasksets):
    """Bind *state* to a fresh :class:`TenantPool` that holds *tasksets*
    (tenant -> TaskSet) and draws every other tenant as usual.

    The configuration's cached pool (``tenant_pool``) is left alone, so
    no other state or test reads these sets.
    """
    config = state.config
    pool = TenantPool(config.generator(), config.seed, config.u_set)
    pool._tasksets.update(tasksets)
    state._pool = pool
    return pool
