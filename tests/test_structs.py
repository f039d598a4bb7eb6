"""Wire formats: every serialized structure round-trips bit-exactly."""

from hypothesis import given, settings, strategies as st

from ccxsim import isa
from ccxsim.memory import EpcmEntry, PageType, Perms
from ccxsim.structs import (
    Attributes,
    KeyRequest,
    PCMD_SIZE,
    Pcmd,
    Report,
    SSA_FRAME,
    TargetInfo,
    Tcs,
    pcmd_entry,
    pcmd_meta,
)

u64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
u16 = st.integers(min_value=0, max_value=(1 << 16) - 1)
b32 = st.binary(min_size=32, max_size=32)
perms = st.sampled_from([Perms(b) for b in range(8)])


@settings(max_examples=50, deadline=None)
@given(
    oentry=u64, ossa=st.integers(0, 1 << 40), nssa=st.integers(1, 16),
    tls=u64, cssa=st.integers(0, 16),
    dbg=st.booleans(), notify=st.booleans(),
)
def test_tcs_page_round_trip(oentry, ossa, nssa, tls, cssa, dbg, notify):
    tcs = Tcs(oentry=oentry, ossa=ossa, nssa=nssa, tls_base=tls, cssa=cssa,
              dbgoptin=dbg, aexnotify=notify)
    again = Tcs.unpack(tcs.pack())
    assert again == tcs
    assert len(tcs.pack()) == 4096


@settings(max_examples=50, deadline=None)
@given(words=st.lists(u64, min_size=37, max_size=37))
def test_ssa_frame_round_trip(words):
    """x0..x30, sp, pc, pstate, tpidr, exit reason and exit payload."""
    data = SSA_FRAME.pack(*words)
    assert len(data) == 296
    assert list(SSA_FRAME.unpack(data)) == words


@settings(max_examples=50, deadline=None)
@given(
    mre=b32, mrs=b32, prod=u16, svn=u16, attrs=u64,
    rdata=st.binary(min_size=64, max_size=64), keyid=b32,
    mac=st.binary(min_size=16, max_size=16),
)
def test_report_round_trip(mre, mrs, prod, svn, attrs, rdata, keyid, mac):
    report = Report(mre, mrs, prod, svn, attrs, rdata, keyid, mac)
    assert Report.from_bytes(report.to_bytes()) == report


@settings(max_examples=50, deadline=None)
@given(name=u16, policy=u16, svn=u16, keyid=b32)
def test_keyrequest_and_targetinfo_round_trip(name, policy, svn, keyid):
    req = KeyRequest(name, policy, svn, keyid)
    assert KeyRequest.unpack(req.pack()) == req
    tinfo = TargetInfo(keyid)
    assert TargetInfo.unpack(tinfo.pack()) == tinfo


@settings(max_examples=50, deadline=None)
@given(
    ptype=st.sampled_from([PageType.REG, PageType.TCS, PageType.VA, PageType.TRIM]),
    p=perms,
    pending=st.booleans(), modified=st.booleans(),
    staged=st.sampled_from([None, PageType.TCS, PageType.TRIM]),
    owner=st.integers(1, 1 << 32),
    vaddr=u64,
    epoch=st.integers(0, 1 << 32),
    mac=st.binary(min_size=16, max_size=16),
)
def test_pcmd_round_trip(ptype, p, pending, modified, staged, owner, vaddr, epoch, mac):
    """A blocked entry EWB can write back comes back from its metadata as the
    same entry, unblocked; the PCMD comes back from its wire bytes."""
    va = ptype == PageType.VA
    entry = EpcmEntry(
        ptype, owner=None if va else owner, vaddr=vaddr, perms=p, blocked=True,
        pending=pending and not modified, modified=modified and not pending,
        staged_type=staged, blocked_epoch=None if va else epoch,
    )
    meta = pcmd_meta(entry)
    assert pcmd_entry(meta) == entry._replace(blocked=False, blocked_epoch=None)
    pcmd = Pcmd(meta, mac)
    assert len(pcmd.pack()) == PCMD_SIZE
    assert Pcmd.unpack(pcmd.pack()) == pcmd


@settings(max_examples=50, deadline=None)
@given(word=u64)
def test_attributes_decode_encode_stable(word):
    # only the defined bits survive a decode; re-encoding is then stable
    attrs = Attributes.decode(word)
    assert Attributes.decode(attrs.encode()) == attrs


@settings(max_examples=60, deadline=None)
@given(
    op=st.sampled_from(sorted(isa.OP_NAMES)),
    rd=st.integers(0, 31), rs1=st.integers(0, 31), rs2=st.integers(0, 31),
    imm=u64,
)
def test_instruction_encode_decode_round_trip(op, rd, rs1, rs2, imm):
    raw = isa.encode(op, rd=rd, rs1=rs1, rs2=rs2, imm=imm)
    assert isa.decode(raw) == (op, rd, rs1, rs2, imm)
