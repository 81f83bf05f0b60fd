package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/msg"
)

// fitAlphaBeta measures the channel transport's one-way message time at
// each size by ping-pong between two ranks, then least-squares fits
// t(n) = alpha + beta*n.  The sizes are the ones the workload sends (its
// per-layer mean message sizes); seed only shuffles the order they are
// measured in.  It returns alpha and beta in seconds and seconds/byte.
func fitAlphaBeta(sizes []int, seed int64, perSize time.Duration) (alpha, beta float64, err error) {
	sizes = append([]int(nil), sizes...)
	rand.New(rand.NewSource(seed)).Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	var xs, ys []float64
	for _, n := range sizes {
		t, err := oneWay(n, perSize)
		if err != nil {
			return 0, 0, err
		}
		xs = append(xs, float64(n))
		ys = append(ys, t)
	}
	if len(xs) < 2 {
		return 0, 0, fmt.Errorf("α/β fit needs two message sizes, have %d", len(xs))
	}
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= float64(len(xs))
	my /= float64(len(ys))
	var sxy, sxx float64
	for i := range xs {
		sxy += (xs[i] - mx) * (ys[i] - my)
		sxx += (xs[i] - mx) * (xs[i] - mx)
	}
	beta = sxy / sxx
	return my - beta*mx, beta, nil
}

// oneWay returns the median one-way time of an n-byte message over the
// in-process channel transport, from batches of round trips that run
// for about d in total.
func oneWay(n int, d time.Duration) (float64, error) {
	const tag, batch = 7, 16
	t := msg.NewChanTransport(2)
	defer t.Close()
	a, b := t.Endpoint(0), t.Endpoint(1)
	payload := make([]byte, n)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var echoErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			p, err := b.Recv(0, tag)
			if err != nil {
				return // transport closed
			}
			if len(p.Data) == 0 { // zero-length message: stop
				close(stop)
				return
			}
			if err := b.Send(0, tag, p.Data); err != nil {
				echoErr = err
				return
			}
		}
	}()
	var samples []float64
	deadline := time.Now().Add(d)
	for len(samples) < 5 || time.Now().Before(deadline) {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if err := a.Send(1, tag, payload); err != nil {
				return 0, err
			}
			if _, err := a.Recv(1, tag); err != nil {
				return 0, err
			}
		}
		samples = append(samples, time.Since(t0).Seconds()/(2*batch))
	}
	if err := a.Send(1, tag, nil); err != nil {
		return 0, err
	}
	<-stop
	wg.Wait()
	if echoErr != nil {
		return 0, echoErr
	}
	sort.Float64s(samples)
	return samples[len(samples)/2], nil
}

// messageSizes lists the workload's per-layer mean data-message sizes in
// bytes, distinct, with the 8-byte scalar message always among them.
func messageSizes(sent map[string]traffic) []int {
	seen := map[int]bool{8: true}
	out := []int{8}
	for _, t := range sent {
		if t.msgs == 0 {
			continue
		}
		n := int(t.bytes / t.msgs)
		if n < 8 {
			n = 8
		}
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	sort.Ints(out)
	return out
}
