"""Raw ENCLS frames through the trap gadget, in both memory modes.

Each frame is a random leaf 0x0-0xF whose words come from random values,
addresses into host granules of random bytes (some holding parameter blocks
built from the same words), EPC granules and their addresses, version-array
slots, enclave page addresses, and out-of-range values.  Whatever the frames,
only an SgxError leaves the gadget, and the machine's invariants hold after
every frame.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from ccxsim import execution
from ccxsim.errors import SgxError
from ccxsim.machine import Machine
from ccxsim.memory import GRANULE_SIZE
from ccxsim.structs import PAGEINFO_SIZE, VA_SLOT_SIZE, PageType, Perms, SecInfo

from helpers import BASE, build_raw_enclave, free_epc_granules, host_scratch_granules, small_config

MASK64 = (1 << 64) - 1
PARAM_BLOCKS = 8  # parameter blocks at the start of the first host granule


def _world(mode):
    """A machine with an initialized enclave (two pages and a TCS), an
    uninitialized one, a version array, spare EPC granules and two host
    granules."""
    m = Machine(small_config(mode=mode))
    enclaves = [build_raw_enclave(m, tcs_specs=[{"vaddr": 0x2000, "ossa": 0x1000, "nssa": 1}]),
                build_raw_enclave(m, init=False)]
    (va_g,) = free_epc_granules(m, 1)
    m.leaf("EPA", va_g)
    spare = free_epc_granules(m, 3)
    host = host_scratch_granules(m, 2)
    return m, enclaves, va_g, spare, host


def _words(m, enclaves, va_g, spare, host):
    count = m.memory.granule_count
    granules = [va_g, *spare, *host, 0, 1]
    for enc in enclaves:
        granules += [enc.secs_granule, *enc.pages.values()]
    reg_rw = SecInfo(Perms.R | Perms.W, PageType.REG).word()
    return st.one_of(
        st.integers(0, MASK64),
        st.sampled_from([0, 1, 2, 3, 1 << 21, reg_rw, 0x100, 0x903]),
        st.sampled_from(granules),
        st.sampled_from(granules).map(lambda g: g * GRANULE_SIZE),
        st.integers(0, PARAM_BLOCKS - 1).map(lambda i: host[0] * GRANULE_SIZE + i * PAGEINFO_SIZE),
        st.integers(0, 2 * GRANULE_SIZE - 1).map(lambda o: host[0] * GRANULE_SIZE + o),
        st.integers(0, 15).map(lambda s: va_g * GRANULE_SIZE + s * VA_SLOT_SIZE),
        st.integers(0, 0x3F).map(lambda k: BASE + k * 0x100),
        st.sampled_from([count, count * GRANULE_SIZE, count * GRANULE_SIZE - 8, MASK64]),
    )


@pytest.mark.parametrize("mode", ["sgx", "ccx"])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_raw_encls_frames_end_in_sgx_errors_and_keep_the_invariants(mode, seed, data):
    m, enclaves, va_g, spare, host = _world(mode)
    words = _words(m, enclaves, va_g, spare, host)
    rng = random.Random(seed)
    for g in host:
        m.host_write(g, 0, rng.randbytes(GRANULE_SIZE))
    blocks = data.draw(st.lists(st.tuples(words, words, words, words),
                                min_size=PARAM_BLOCKS, max_size=PARAM_BLOCKS))
    for i, block in enumerate(blocks):
        m.host_write(host[0], i * PAGEINFO_SIZE,
                     b"".join(w.to_bytes(8, "little") for w in block))
    frames = data.draw(st.lists(st.tuples(st.integers(0, 0xF), words, words, words),
                                min_size=1, max_size=20))
    vcpu = m.vcpus[0]
    for leaf, *args in frames:
        try:
            execution.gadget_trap(m, vcpu, execution.TrapFrame(execution.SMC_ID_ENCLS, leaf, *args))
        except SgxError:
            pass
        m.audit()
