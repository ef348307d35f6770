package storage

import (
	"errors"
	"sync"
)

// ErrInjected is the failure produced by a FaultFile when a trigger fires.
var ErrInjected = errors.New("storage: injected fault")

// FaultFile wraps a PageFile and injects failures for testing. Reads fail
// from a trigger on: after FailReadAfter(n) successful reads, every
// further read fails with ErrInjected until the trigger is reset. Writes
// fail one at a time: after FailWrite(n) only the n-th write fails, so an
// operation's later writes (the tree header every insert and delete ends
// with) cannot carry the error out in place of one an earlier step
// dropped. Both triggers start disarmed. It is used by the
// failure-injection tests of the R-tree and the join algorithms, and is
// exported so downstream users can test their own error handling.
type FaultFile struct {
	mu     sync.Mutex
	inner  PageFile
	reads  int64
	writes int64
	// failRead is the count of reads that succeed before every later one
	// fails, failWrite the index of the one write that fails; negative
	// means disarmed.
	failRead  int64
	failWrite int64
}

// NewFaultFile wraps inner with disarmed fault triggers.
func NewFaultFile(inner PageFile) *FaultFile {
	return &FaultFile{inner: inner, failRead: -1, failWrite: -1}
}

// FailReadAfter arms the read trigger: the next n reads succeed, every
// read after that fails. n = 0 fails immediately; pass a negative n to
// disarm.
func (f *FaultFile) FailReadAfter(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failRead = n
	f.reads = 0
}

// FailWrite arms the write trigger: of the writes from now on, the n-th
// (0-based) fails and every other one succeeds. Pass a negative n to
// disarm.
func (f *FaultFile) FailWrite(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failWrite = n
	f.writes = 0
}

// PageSize implements PageFile.
func (f *FaultFile) PageSize() int { return f.inner.PageSize() }

// NumPages implements PageFile.
func (f *FaultFile) NumPages() int64 { return f.inner.NumPages() }

// Allocate implements PageFile.
func (f *FaultFile) Allocate() (PageID, error) { return f.inner.Allocate() }

// ReadPage implements PageFile, failing once the read trigger fires.
func (f *FaultFile) ReadPage(id PageID, buf []byte) error {
	f.mu.Lock()
	armed := f.failRead >= 0
	fire := armed && f.reads >= f.failRead
	f.reads++
	f.mu.Unlock()
	if fire {
		return ErrInjected
	}
	return f.inner.ReadPage(id, buf)
}

// WritePage implements PageFile, failing the one write the trigger names.
func (f *FaultFile) WritePage(id PageID, buf []byte) error {
	f.mu.Lock()
	fire := f.writes == f.failWrite
	f.writes++
	f.mu.Unlock()
	if fire {
		return ErrInjected
	}
	return f.inner.WritePage(id, buf)
}

// Close implements PageFile.
func (f *FaultFile) Close() error { return f.inner.Close() }
