package sim

import "testing"

// Engine throughput: how many simulated events per second of wall time
// the coroutine handoff sustains. Every network hop, disk request, and
// resource grant in the DAS simulator costs a handful of these.
func BenchmarkEventDispatch(b *testing.B) {
	e := NewEngine()
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Microsecond)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkResourceHandoff(b *testing.B) {
	e := NewEngine()
	r := NewResource(e, "res", 1)
	for w := 0; w < 4; w++ {
		e.Spawn("worker", func(p *Proc) {
			for i := 0; i < b.N/4; i++ {
				r.Use(p, 1, Microsecond)
			}
		})
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkMailboxPingPong(b *testing.B) {
	e := NewEngine()
	ping := NewMailbox[int](e, "ping")
	pong := NewMailbox[int](e, "pong")
	e.SpawnDaemon("server", func(p *Proc) {
		for {
			v := ping.Get(p)
			pong.Put(v)
		}
	})
	e.Spawn("client", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ping.Put(i)
			pong.Get(p)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	e.Shutdown()
}
