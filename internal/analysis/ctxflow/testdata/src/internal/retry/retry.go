// Package retry is in ctxflow's scope: a retry loop that cannot be
// cancelled turns every transient failure into a hang.
package retry

import (
	"context"
	"time"
)

func retryUntilNil(op func() error) { // want `retryUntilNil contains an unbounded loop but takes no context.Context`
	for op() != nil {
	}
}

// spinRetry takes a ctx and then ignores it — the capture suggests
// cancellation was intended and dropped.
func spinRetry(ctx context.Context, op func() error) { // want `spinRetry contains an unbounded loop and takes a context.Context but never consults it`
	for op() != nil {
	}
}

// do is the accepted retry shape: a bounded attempt budget, the parent
// checked before each attempt, and a cancellable backoff sleep.
func do(ctx context.Context, attempts int, op func(context.Context) error) error {
	var err error
	for a := 0; a < attempts; a++ {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if err = op(ctx); err == nil {
			return nil
		}
		if serr := Sleep(ctx, time.Millisecond); serr != nil {
			return serr
		}
	}
	return err
}

// Sleep is the cancellable backoff: unconditionally selects on Done.
func Sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// doSevered severs the chain: its caller's ctx can never stop the
// unbounded waiter it delegates to.
func doSevered(ctx context.Context, op func() error) error {
	waitForever(context.Background()) // want `doSevered passes a fresh context.Background\(\)/context.TODO\(\) to waitForever, which contains an unbounded loop`
	return ctx.Err()
}

// waitForever is a cancellable busy-wait: unbounded but consults.
func waitForever(ctx context.Context) {
	for {
		if ctx.Err() != nil {
			return
		}
	}
}
