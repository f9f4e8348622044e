package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"costperf/internal/engine"
	"costperf/internal/masstree"
	"costperf/internal/obs"
	"costperf/internal/shard"
	"costperf/internal/ssd"
	"costperf/internal/tc"
	"costperf/internal/wire"
)

// kv is what a worker drives: engine.Engine, wire.Client and shard.Router
// all satisfy it.
type kv interface {
	Get(ctx context.Context, key []byte) ([]byte, bool, error)
	Put(ctx context.Context, key, val []byte) error
	Scan(ctx context.Context, start []byte, limit int, fn func(k, v []byte) bool) error
}

// stack is one built system under test.
type stack struct {
	clients []kv // one per worker
	top     kv   // the path the final sweep reads through

	eng    *engine.Engine // engine and wire stacks
	srv    *wire.Server   // wire stack
	wcl    []*wire.Client // wire stack
	router *shard.Router  // standby stack
	served chan struct{}  // closed when the wire server's Serve returns

	closeFn func() error
}

func (s *stack) close() error { return s.closeFn() }

// build constructs the workload's stack, loads keys 0..n-1 with their
// owners' sequence-0 values, and connects one client per worker. With tr
// non-nil the benchmark's decorators sit at every public seam.
func build(w spec, tr *tracer, workers int) (*stack, error) {
	var (
		s   *stack
		err error
	)
	switch w.stack {
	case "engine":
		s, err = buildEngine(tr, workers, false)
	case "wire":
		s, err = buildEngine(tr, workers, true)
	case "standby":
		s, err = buildStandby(tr, workers)
	default:
		err = fmt.Errorf("unknown stack %q", w.stack)
	}
	if err != nil {
		return nil, err
	}
	if err := load(s.loader(), w.keys, workers, w.loaders); err != nil {
		s.close()
		return nil, fmt.Errorf("load: %w", err)
	}
	if s.srv != nil {
		if err := s.connect(tr, workers); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// loader is the in-process top of the stack: the engine, or the router.
func (s *stack) loader() kv {
	if s.router != nil {
		return s.router
	}
	return s.eng
}

// load writes every key once, spread over several goroutines.
func load(db kv, n uint64, workers, loaders int) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	ctx := context.Background()
	for l := 0; l < loaders; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			var kb [keySize]byte
			val := make([]byte, valueSize)
			for k := uint64(l); k < n; k += uint64(loaders) {
				encodeValue(val, k, 0, byte(k%uint64(workers)))
				if err := db.Put(ctx, keyBytes(kb[:], k), val); err != nil {
					mu.Lock()
					if first == nil {
						first = fmt.Errorf("key %d: %w", k, err)
					}
					mu.Unlock()
					return
				}
			}
		}(l)
	}
	wg.Wait()
	return first
}

// buildEngine builds engine.Engine over masstree, obs on, and for the wire
// stack a wire.Server on a loopback listener in front of it.
func buildEngine(tr *tracer, workers int, withWire bool) (*stack, error) {
	reg := obs.NewRegistry()
	mt := masstree.New(nil)
	mt.SetObs(reg.Tracer("masstree"))
	var store engine.Store = engine.WrapMassTree(mt)
	if tr != nil {
		store = &tracedStore{in: store, t: tr}
	}
	eng, err := engine.New(engine.Config{Store: store, Obs: reg.Tracer("engine")})
	if err != nil {
		return nil, err
	}
	s := &stack{eng: eng, top: eng, closeFn: eng.Close}
	if !withWire {
		for w := 0; w < workers; w++ {
			s.clients = append(s.clients, eng)
		}
		return s, nil
	}
	var backend wire.Backend = eng
	if tr != nil {
		backend = tr.wrapBackend(eng)
	}
	srv, err := wire.NewServer(wire.ServerConfig{Backend: backend})
	if err != nil {
		eng.Close()
		return nil, err
	}
	s.srv = srv
	s.closeFn = func() error {
		for _, c := range s.wcl {
			c.Close()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		derr := srv.Drain(ctx)
		srv.Close()
		if s.served != nil {
			<-s.served
		}
		if err := eng.Close(); err != nil {
			return err
		}
		return derr
	}
	return s, nil
}

// connect starts serving on a loopback listener and dials one client per
// worker plus one for the sweep, each with one request in flight.
func (s *stack) connect(tr *tracer, workers int) error {
	var l net.Listener
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	if tr != nil {
		l = countedListener{Listener: l, t: tr}
	}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		s.srv.Serve(l)
	}()
	addr := l.Addr().String()
	for w := 0; w <= workers; w++ {
		dial := func() (net.Conn, error) { return net.Dial("tcp", addr) }
		if tr != nil && w < workers {
			dial = func() (net.Conn, error) {
				c, err := net.Dial("tcp", addr)
				if err != nil {
					return nil, err
				}
				return tr.clientConn(c), nil
			}
		}
		c, err := wire.NewClient(wire.ClientConfig{Dial: dial, Seed: stackSeed + int64(w) + 1, MaxInFlight: 1})
		if err != nil {
			return err
		}
		s.wcl = append(s.wcl, c)
		if err := c.Ping(context.Background()); err != nil {
			return fmt.Errorf("dial: %w", err)
		}
	}
	for w := 0; w < workers; w++ {
		s.clients = append(s.clients, s.wcl[w])
	}
	s.top = s.wcl[workers]
	return nil
}

// buildStandby builds a 2-shard router whose shards are semi-sync
// replicated clusters over masstree data components, obs on.
func buildStandby(tr *tracer, workers int) (*stack, error) {
	cfg := shard.Config{Shards: 2, Standby: true, Registry: obs.NewRegistry(), Seed: stackSeed}
	if tr != nil {
		// The router's own defaults, wrapped.
		cfg.NewDC = tr.newDC(func(int) tc.DataComponent { return shard.NewMassDC() })
		cfg.NewLog = tr.newLog(func(name string) ssd.Dev {
			return ssd.New(ssd.Config{Name: name, MaxIOPS: 1e6, LatencySec: 20e-6})
		})
	}
	r, err := shard.New(cfg)
	if err != nil {
		return nil, err
	}
	s := &stack{router: r, top: r, closeFn: r.Close}
	for w := 0; w < workers; w++ {
		s.clients = append(s.clients, r)
	}
	return s, nil
}

// engines lists the stack's engine front-ends.
func (s *stack) engines() []*engine.Engine {
	if s.router == nil {
		return []*engine.Engine{s.eng}
	}
	var out []*engine.Engine
	for i := 0; i < s.router.Shards(); i++ {
		out = append(out, s.router.Engine(i))
	}
	return out
}
