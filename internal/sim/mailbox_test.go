package sim

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestMailboxPutThenGet(t *testing.T) {
	e := NewEngine()
	box := NewMailbox[string](e, "box")
	var got string
	e.Spawn("producer", func(p *Proc) { box.Put("hello") })
	e.Spawn("consumer", func(p *Proc) {
		p.Sleep(Millisecond)
		got = box.Get(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "hello" {
		t.Errorf("got %q", got)
	}
}

func TestMailboxGetBlocksUntilPut(t *testing.T) {
	e := NewEngine()
	box := NewMailbox[int](e, "box")
	var at Time
	e.Spawn("consumer", func(p *Proc) {
		box.Get(p)
		at = p.Now()
	})
	e.Spawn("producer", func(p *Proc) {
		p.Sleep(3 * Millisecond)
		box.Put(1)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 3*Millisecond {
		t.Errorf("consumer resumed at %v, want 3ms", at)
	}
}

func TestMailboxFIFOAmongMessages(t *testing.T) {
	e := NewEngine()
	box := NewMailbox[int](e, "box")
	var got []int
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			box.Put(i)
		}
	})
	e.Spawn("consumer", func(p *Proc) {
		p.Sleep(Millisecond)
		for i := 0; i < 5; i++ {
			got = append(got, box.Get(p))
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("messages out of order: %v", got)
		}
	}
}

func TestMailboxFIFOAmongWaiters(t *testing.T) {
	e := NewEngine()
	box := NewMailbox[int](e, "box")
	recv := make(map[int]int) // waiter -> message
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			p.Sleep(Time(i)) // deterministic wait order
			recv[i] = box.Get(p)
		})
	}
	e.Spawn("producer", func(p *Proc) {
		p.Sleep(Millisecond)
		for i := 0; i < 3; i++ {
			box.Put(100 + i)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if recv[i] != 100+i {
			t.Errorf("waiter %d got %d, want %d (FIFO handoff)", i, recv[i], 100+i)
		}
	}
}

func TestSignalFireBeforeWait(t *testing.T) {
	e := NewEngine()
	s := NewSignal[int](e, "done")
	var got int
	e.Spawn("firer", func(p *Proc) { s.Fire(42) })
	e.Spawn("waiter", func(p *Proc) {
		p.Sleep(Millisecond)
		got = s.Wait(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Errorf("got %d", got)
	}
}

func TestSignalWaitBeforeFire(t *testing.T) {
	e := NewEngine()
	s := NewSignal[string](e, "done")
	var got string
	var at Time
	e.Spawn("waiter", func(p *Proc) {
		got = s.Wait(p)
		at = p.Now()
	})
	e.Spawn("firer", func(p *Proc) {
		p.Sleep(5 * Millisecond)
		s.Fire("ok")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "ok" || at != 5*Millisecond {
		t.Errorf("got %q at %v", got, at)
	}
}

func TestSignalMultipleWaiters(t *testing.T) {
	e := NewEngine()
	s := NewSignal[int](e, "done")
	count := 0
	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			s.Wait(p)
			count++
		})
	}
	e.Spawn("firer", func(p *Proc) {
		p.Sleep(Millisecond)
		s.Fire(0)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 4 {
		t.Errorf("%d waiters resumed, want 4", count)
	}
}

func TestSignalDoubleFirePanics(t *testing.T) {
	e := NewEngine()
	s := NewSignal[int](e, "once")
	e.Spawn("p", func(p *Proc) {
		s.Fire(1)
		defer func() {
			if recover() == nil {
				t.Error("expected panic on double fire")
			}
		}()
		s.Fire(2)
	})
	_ = e.Run()
}

func TestWaitAllJoinsForks(t *testing.T) {
	e := NewEngine()
	var sigs []*Signal[int]
	e.Spawn("parent", func(p *Proc) {
		for i := 0; i < 5; i++ {
			i := i
			s := NewSignal[int](e, fmt.Sprintf("child%d", i))
			sigs = append(sigs, s)
			p.Spawn(fmt.Sprintf("c%d", i), func(c *Proc) {
				c.Sleep(Time(5-i) * Millisecond)
				s.Fire(i * i)
			})
		}
		vals := WaitAll(p, sigs)
		for i, v := range vals {
			if v != i*i {
				t.Errorf("child %d returned %d, want %d", i, v, i*i)
			}
		}
		if p.Now() != 5*Millisecond {
			t.Errorf("join completed at %v, want 5ms (slowest child)", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// Property: every message Put into a mailbox is Got exactly once, and the
// multiset of received values equals the multiset sent.
func TestMailboxConservationProperty(t *testing.T) {
	prop := func(vals []int32) bool {
		if len(vals) > 64 {
			vals = vals[:64]
		}
		e := NewEngine()
		box := NewMailbox[int32](e, "box")
		sent := make(map[int32]int)
		got := make(map[int32]int)
		for i, v := range vals {
			v := v
			sent[v]++
			e.Spawn(fmt.Sprintf("prod%d", i), func(p *Proc) {
				p.Sleep(Time(i%13) * Microsecond)
				box.Put(v)
			})
		}
		e.Spawn("consumer", func(p *Proc) {
			for range vals {
				got[box.Get(p)]++
			}
		})
		if err := e.Run(); err != nil {
			return false
		}
		if len(sent) != len(got) {
			return false
		}
		for k, n := range sent {
			if got[k] != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
