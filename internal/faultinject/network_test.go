package faultinject

import (
	"errors"
	"testing"
)

func TestClearErrDisarms(t *testing.T) {
	defer Reset()
	SetErr("x.conn", ErrorAlways(ErrInjectedConn))
	if err := FireErr("x.conn"); !errors.Is(err, ErrInjectedConn) {
		t.Fatalf("armed FireErr = %v", err)
	}
	Clear("x.conn")
	if err := FireErr("x.conn"); err != nil {
		t.Fatalf("cleared FireErr = %v, want nil", err)
	}
	if armed.Load() {
		t.Fatal("armed flag still set after the last hook was cleared")
	}
}

func TestErrorsNExhausts(t *testing.T) {
	hook := ErrorsN(2, ErrInjectedConn)
	for i := 0; i < 2; i++ {
		if err := hook(); !errors.Is(err, ErrInjectedConn) {
			t.Fatalf("call %d = %v, want injected error", i, err)
		}
	}
	if err := hook(); err != nil {
		t.Fatalf("exhausted hook = %v, want nil", err)
	}
}
