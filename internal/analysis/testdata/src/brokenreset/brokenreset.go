// Golden cases for the brokenreset analyzer: WaitContext/WaitSiteContext
// errors must be consulted, and ErrBroken branches must Reset or stop.
package brokenreset

import (
	"context"
	"errors"
	"fmt"
	"os"

	"thriftybarrier/thrifty"
)

func flaggedDiscards(b *thrifty.Barrier, ctx context.Context) {
	b.WaitContext(ctx)        // want `result of \(\*thrifty\.Barrier\)\.WaitContext is discarded`
	b.WaitSiteContext(ctx, 1) // want `result of \(\*thrifty\.Barrier\)\.WaitSiteContext is discarded`
	_ = b.WaitContext(ctx)    // want `result of \(\*thrifty\.Barrier\)\.WaitContext is assigned to blank`
	go b.WaitContext(ctx)     // want `result of \(\*thrifty\.Barrier\)\.WaitContext is discarded by go statement`
	defer b.WaitContext(ctx)  // want `result of \(\*thrifty\.Barrier\)\.WaitContext is discarded by defer statement`
}

func flaggedSwallowedBroken(b *thrifty.Barrier, ctx context.Context) {
	for {
		err := b.WaitContext(ctx)
		if errors.Is(err, thrifty.ErrBroken) { // want `ErrBroken branch neither calls Reset nor stops using the barrier`
			fmt.Println("broken, retrying") // ...which loops on ErrBroken forever
			continue
		}
		if err != nil {
			return
		}
	}
}

func flaggedSwallowedEquality(b *thrifty.Barrier, ctx context.Context) {
	for i := 0; i < 10; i++ {
		err := b.WaitContext(ctx)
		if err == thrifty.ErrBroken { // want `ErrBroken branch neither calls Reset nor stops using the barrier`
		}
	}
}

func flaggedSwitch(b *thrifty.Barrier, ctx context.Context) {
	for {
		err := b.WaitContext(ctx)
		switch {
		case errors.Is(err, thrifty.ErrBroken): // want `ErrBroken case neither calls Reset nor stops using the barrier`
			fmt.Println("ignoring a broken barrier")
		case err != nil:
			return
		}
	}
}

// --- clean cases ---

func cleanChecked(b *thrifty.Barrier, ctx context.Context) error {
	if err := b.WaitContext(ctx); err != nil {
		return err
	}
	return nil
}

func cleanReset(b *thrifty.Barrier, ctx context.Context) {
	for {
		err := b.WaitContext(ctx)
		if errors.Is(err, thrifty.ErrBroken) {
			b.Reset() // re-arms the barrier: the loop can continue
			continue
		}
		if err != nil {
			return
		}
	}
}

func cleanPropagates(b *thrifty.Barrier, ctx context.Context) error {
	err := b.WaitContext(ctx)
	if errors.Is(err, thrifty.ErrBroken) {
		return fmt.Errorf("rendezvous failed: %w", err)
	}
	return err
}

func cleanExits(b *thrifty.Barrier, ctx context.Context) {
	err := b.WaitContext(ctx)
	switch {
	case errors.Is(err, thrifty.ErrBroken):
		fmt.Fprintln(os.Stderr, "barrier broken; giving up")
		os.Exit(1)
	case err != nil:
		panic(err)
	}
}

func cleanBreaks(b *thrifty.Barrier, ctx context.Context) {
	for {
		err := b.WaitContext(ctx)
		if errors.Is(err, thrifty.ErrBroken) {
			break // stops using the barrier
		}
	}
}
