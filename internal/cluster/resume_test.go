package cluster

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/wal"
)

// TestSessionResumeRace abandons a session stream with its whole
// window unread and resumes the session from seq 1 on a stream opened
// while the first one is still submitting. The resume waits for the
// first stream's Close, which records every in-flight result, so every
// event applies exactly once: the replay comes back a dup for every
// seq, in seq order, and the fleet renders like a control fleet that
// applied the schedule once. Run 20 times under -race in CI.
func TestSessionResumeRace(t *testing.T) {
	cs := streamTestClusters(t, 2, 4, 2)
	c, control := cs[0], cs[1]
	evs := streamSchedule(4)
	ctx := context.Background()
	for i, ev := range evs {
		if _, err := control.Apply(ctx, ev); err != nil {
			t.Fatalf("control event %d: %v", i, err)
		}
	}

	first, err := c.OpenStream(StreamOptions{Window: len(evs), Session: "race"})
	if err != nil {
		t.Fatal(err)
	}
	resumed := make(chan *StreamConn, 1)
	go func() {
		sc, err := c.OpenStream(StreamOptions{Window: len(evs), Session: "race"})
		if err != nil {
			t.Error(err)
		}
		resumed <- sc
	}()
	for i, ev := range evs {
		ev.SessionSeq = uint64(i + 1)
		if err := first.Submit(ctx, ev); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	sc := <-resumed
	if sc == nil {
		t.FailNow()
	}
	for i, ev := range evs {
		ev.SessionSeq = uint64(i + 1)
		if err := sc.Submit(ctx, ev); err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
	}
	for i := range evs {
		res, err := sc.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Dup || res.Seq != i+1 || res.Err != nil {
			t.Fatalf("replay result %d = %+v, want a dup of seq %d", i, res, i+1)
		}
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := fleetRenders(t, c)
	want, _ := fleetRenders(t, control)
	if got != want {
		t.Fatalf("resumed session diverges from a control that applied each event once:\n got: %s\nwant: %s", got, want)
	}
}

// TestSessionSeqRefusals pins the numbering rule on a session stream:
// a missing seq, a first seq past the highest applied seq + 1, and a
// seq that does not follow the one before are refused by Submit with
// ErrSessionSeq and the protocol's texts, and take no window slot; a
// refused or canceled Submit leaves the numbering as it was.
func TestSessionSeqRefusals(t *testing.T) {
	c := streamTestClusters(t, 1, 2, 1)[0]
	ctx := context.Background()
	offer := func(seq uint64) Event {
		return Event{Tenant: 0, Type: EventStreamArrival, Stream: int(seq), SessionSeq: seq}
	}
	refused := func(sc *StreamConn, seq uint64, want string) {
		t.Helper()
		err := sc.Submit(ctx, offer(seq))
		if !errors.Is(err, ErrSessionSeq) || err.Error() != want {
			t.Fatalf("Submit(seq %d) = %v, want ErrSessionSeq %q", seq, err, want)
		}
	}
	applied := func(sc *StreamConn, seq uint64) {
		t.Helper()
		res, err := sc.Recv(ctx)
		if err != nil || res.Seq != int(seq) || res.Dup || res.Err != nil {
			t.Fatalf("result = %+v, %v; want seq %d applied", res, err, seq)
		}
	}

	// One slot: a refusal that took it would park the next Submit.
	sc, err := c.OpenStream(StreamOptions{Window: 1, Session: "numbering"})
	if err != nil {
		t.Fatal(err)
	}
	refused(sc, 0, "session stream: line missing seq")
	refused(sc, 2, "session stream: seq 2 skips past watermark 0")
	tctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := sc.Submit(tctx, offer(1)); err != nil {
		t.Fatalf("Submit(seq 1) after two refusals: %v", err)
	}
	refused(sc, 3, "session stream: seq 3 after 1 breaks contiguity")
	applied(sc, 1)
	if res, ok := sc.TryRecv(); ok {
		t.Fatalf("a refusal left a result: %+v", res)
	}
	if err := sc.Submit(ctx, offer(2)); err != nil {
		t.Fatal(err)
	}
	// A Submit canceled on the full window does not advance the
	// numbering: seq 3 is still next.
	short, cancelShort := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancelShort()
	if err := sc.Submit(short, offer(3)); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Submit on a full window = %v, want ErrCanceled", err)
	}
	applied(sc, 2)
	if err := sc.Submit(ctx, offer(3)); err != nil {
		t.Fatalf("Submit(seq 3) after a canceled one: %v", err)
	}
	applied(sc, 3)
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}

	// The gap bound is one past the highest applied seq.
	sc, err = c.OpenStream(StreamOptions{Session: "numbering"})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	refused(sc, 5, "session stream: seq 5 skips past watermark 3")
	if err := sc.Submit(ctx, offer(4)); err != nil {
		t.Fatal(err)
	}
	applied(sc, 4)
}

// TestSessionResumePastUnloggedAnswer crashes a fleet whose session
// had seq 1 refused before its shard (an unknown tenant, so never
// logged) and seq 2 applied. The recovered applied set holds only seq
// 2, and a client that holds both answers resumes at seq 3: the gap
// bound is the highest applied seq + 1, not the contiguous prefix + 1,
// so the resume applies.
func TestSessionResumePastUnloggedAnswer(t *testing.T) {
	const tenants, channels, gateways, seed = 2, 8, 3, 9300
	dir := t.TempDir()
	wopts := &WALOptions{Dir: dir, Sync: wal.SyncBatch}
	c := walCatalogFleet(t, tenants, channels, gateways, seed, 2, nil, wopts)
	ctx := context.Background()
	sc, err := c.OpenStream(StreamOptions{Session: "unlogged"})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range []Event{
		{Tenant: 99, Type: EventStreamArrival, Stream: 1, SessionSeq: 1},
		{Tenant: 0, Type: EventStreamArrival, Stream: 2, SessionSeq: 2},
	} {
		if err := sc.Submit(ctx, ev); err != nil {
			t.Fatal(err)
		}
	}
	if res, err := sc.Recv(ctx); err != nil || !errors.Is(res.Err, ErrUnknownTenant) {
		t.Fatalf("seq 1 = %+v, %v; want ErrUnknownTenant", res, err)
	}
	if res, err := sc.Recv(ctx); err != nil || res.Err != nil || res.Dup {
		t.Fatalf("seq 2 = %+v, %v; want applied", res, err)
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
	// Crash: c is abandoned without Close.

	rec, _, err := Recover(walTenantConfigs(t, tenants, channels, gateways, seed),
		walFleetOptions(tenants, channels, 1, nil, wopts))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	sc, err = rec.OpenStream(StreamOptions{Session: "unlogged"})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if err := sc.Submit(ctx, Event{Tenant: 1, Type: EventStreamArrival, Stream: 3, SessionSeq: 3}); err != nil {
		t.Fatalf("resume at seq 3 after recovery: %v", err)
	}
	if res, err := sc.Recv(ctx); err != nil || res.Seq != 3 || res.Err != nil || res.Dup {
		t.Fatalf("seq 3 = %+v, %v; want applied", res, err)
	}
}
