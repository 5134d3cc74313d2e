package simnet

import (
	"errors"
	"testing"

	"anduril/internal/des"
	"anduril/internal/inject"
)

func TestEintrSendDeliversButFailsSender(t *testing.T) {
	site := inject.PseudoSiteID(inject.PartialEINTR, "a.ping.send", "")
	sim, _, net := newNet(inject.Exact(inject.Instance{Site: site, Occurrence: 1}))
	delivered := 0
	var sendErr error
	net.Handle("b", "ping", "b-listener", func(Message, func(interface{}, error)) { delivered++ })
	sim.Go("a-main", func() {
		sendErr = net.Send("a.ping.send", Message{From: "a", To: "b", Type: "ping"})
	})
	sim.Run(des.Second)
	if !errors.Is(sendErr, inject.KindErr(inject.Interrupted)) {
		t.Fatalf("send error: %v", sendErr)
	}
	if delivered != 1 {
		t.Fatalf("delivered %d times, want 1 (eintr delivers anyway)", delivered)
	}
}

func TestDupDeliverSendArrivesTwice(t *testing.T) {
	site := inject.PseudoSiteID(inject.PartialDupDeliver, "a", "b")
	sim, _, net := newNet(inject.Exact(inject.Instance{Site: site, Occurrence: 1}))
	var arrivals []des.Time
	var sendErr error
	net.Handle("b", "ping", "b-listener", func(Message, func(interface{}, error)) {
		arrivals = append(arrivals, sim.Now())
	})
	sim.Go("a-main", func() {
		sendErr = net.Send("a.ping.send", Message{From: "a", To: "b", Type: "ping"})
	})
	sim.Run(des.Second)
	if sendErr != nil {
		t.Fatalf("send error: %v (dup-deliver is silent for the sender)", sendErr)
	}
	if len(arrivals) != 2 {
		t.Fatalf("delivered %d times, want 2", len(arrivals))
	}
	if gap := arrivals[1] - arrivals[0]; gap < inject.PartialDupOffset-3*des.Millisecond || gap > inject.PartialDupOffset+3*des.Millisecond {
		t.Fatalf("duplicate gap %v, want ~%v", gap, inject.PartialDupOffset)
	}
}

func TestEintrCallDeliversButContGetsInterrupted(t *testing.T) {
	site := inject.PseudoSiteID(inject.PartialEINTR, "a.rpc", "")
	sim, _, net := newNet(inject.Exact(inject.Instance{Site: site, Occurrence: 1}))
	handled := 0
	net.Handle("b", "rpc", "b-listener", func(m Message, respond func(interface{}, error)) {
		handled++
		respond("ok", nil)
	})
	conts := 0
	var callErr error
	sim.Go("a-main", func() {
		net.Call("a.rpc", Message{From: "a", To: "b", Type: "rpc"}, 100*des.Millisecond, func(_ interface{}, err error) {
			conts++
			callErr = err
		})
	})
	sim.Run(des.Second)
	if conts != 1 {
		t.Fatalf("continuation ran %d times, want exactly 1", conts)
	}
	if !errors.Is(callErr, inject.KindErr(inject.Interrupted)) {
		t.Fatalf("call error: %v", callErr)
	}
	if handled != 1 {
		t.Fatalf("handler ran %d times, want 1 (eintr delivers anyway)", handled)
	}
}

func TestDupDeliverCallRunsHandlerTwiceContOnce(t *testing.T) {
	site := inject.PseudoSiteID(inject.PartialDupDeliver, "a", "b")
	sim, _, net := newNet(inject.Exact(inject.Instance{Site: site, Occurrence: 1}))
	handled := 0
	net.Handle("b", "rpc", "b-listener", func(m Message, respond func(interface{}, error)) {
		handled++
		respond(handled, nil)
	})
	conts := 0
	var got interface{}
	sim.Go("a-main", func() {
		net.Call("a.rpc", Message{From: "a", To: "b", Type: "rpc"}, des.Second, func(payload interface{}, err error) {
			conts++
			got = payload
		})
	})
	sim.Run(2 * des.Second)
	if handled != 2 {
		t.Fatalf("handler ran %d times, want 2", handled)
	}
	if conts != 1 {
		t.Fatalf("continuation ran %d times, want exactly 1", conts)
	}
	if got != 1 {
		t.Fatalf("continuation saw payload %v, want the first response", got)
	}
}

// Inactive partial sweep must not count pseudo-sites: byte-identity of
// runs without the partial class depends on it.
func TestPartialSitesNotCountedWhenInactive(t *testing.T) {
	sim, fi, net := newNet(nil)
	net.Handle("b", "ping", "b-listener", func(Message, func(interface{}, error)) {})
	sim.Go("a-main", func() {
		net.Send("a.ping.send", Message{From: "a", To: "b", Type: "ping"})
	})
	sim.Run(des.Second)
	for site := range fi.Counts() {
		if inject.ClassOf(site) == inject.ClassPartial {
			t.Fatalf("partial site %s counted in inactive run", site)
		}
	}
}

// With the sweep active but nothing injected, every dispatched message
// ticks its eintr and dup-deliver pseudo-sites exactly once.
func TestPartialOccurrenceCounting(t *testing.T) {
	sim, fi, net := newNet(nil)
	fi.Enable(inject.SetOf(inject.ClassPartial))
	net.Handle("b", "ping", "b-listener", func(Message, func(interface{}, error)) {})
	sim.Go("a-main", func() {
		for i := 0; i < 3; i++ {
			net.Send("a.ping.send", Message{From: "a", To: "b", Type: "ping"})
		}
	})
	sim.Run(des.Second)
	counts := fi.Counts()
	eintr := inject.PseudoSiteID(inject.PartialEINTR, "a.ping.send", "")
	dup := inject.PseudoSiteID(inject.PartialDupDeliver, "a", "b")
	if counts[eintr] != 3 || counts[dup] != 3 {
		t.Fatalf("counts: eintr=%d dup=%d, want 3/3", counts[eintr], counts[dup])
	}
}
