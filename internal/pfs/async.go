package pfs

import (
	"github.com/hpcio/das/internal/simnet"
)

// Task-based client calls: the caller-side counterpart of the request
// chain. A process client pays a goroutine park per RPC — the one event a
// fused Call leaves as a process wake-up. ReadStripFromTask and
// WriteStripToTask move that last event to a task too: the continuation
// runs inline when the response lands, in exactly the (at, seq) the
// process caller's wake-up would occupy, so a task-based client simulates
// byte-identically to a process client while touching no goroutine at
// all.
//
// These are fault-free primitives: no retry, no failover, no timeout, and
// a request or response lost to an injected fault means the continuation
// never runs. Workloads that install a fault plan use the process APIs.

// readCall is one in-flight ReadStripFromTask; pooled on the filesystem.
type readCall struct {
	fs    *FileSystem
	file  string
	strip int64
	srv   int
	cont  func(data []byte, err error)
}

func (rc *readCall) OnResponse(resp simnet.Message) {
	fs, cont := rc.fs, rc.cont
	file, strip, srv := rc.file, rc.strip, rc.srv
	rc.file, rc.cont = "", nil
	fs.readCallFree = append(fs.readCallFree, rc)
	switch r := resp.Payload.(type) {
	case *readResp:
		data := r.Data[0]
		fs.readRespPut(r)
		cont(data, nil)
	case errResp:
		cont(nil, respError(r, describe("read", file, strip, 1, srv)))
	default:
		cont(nil, unexpectedResponse(resp.Payload, describe("read", file, strip, 1, srv)))
	}
}

// ReadStripFromTask is the task-based ReadStripFrom: it issues the read
// RPC as a transfer chain and runs cont inline when the response lands,
// with the strip lent as ReadStripFrom lends it. The caller should pass a
// long-lived cont (a stored method value), not a fresh closure per call,
// to keep the per-RPC path allocation-free.
func (fs *FileSystem) ReadStripFromTask(fromID, srv int, file string, strip, lo, hi int64, cont func(data []byte, err error)) {
	rc := fs.readCallGet()
	rc.file, rc.strip, rc.srv, rc.cont = file, strip, srv, cont
	fs.callTask(fromID, srv, fs.readOne(file, strip, lo, hi), HeaderBytes, rc)
}

// writeCall is one in-flight WriteStripToTask; pooled on the filesystem.
type writeCall struct {
	fs    *FileSystem
	file  string
	strip int64
	srv   int
	cont  func(err error)
}

func (wc *writeCall) OnResponse(resp simnet.Message) {
	fs, cont := wc.fs, wc.cont
	file, strip, srv := wc.file, wc.strip, wc.srv
	wc.file, wc.cont = "", nil
	fs.writeCallFree = append(fs.writeCallFree, wc)
	switch r := resp.Payload.(type) {
	case ackResp:
		cont(nil)
	case errResp:
		cont(respError(r, describe("write", file, strip, 1, srv)))
	default:
		cont(unexpectedResponse(resp.Payload, describe("write", file, strip, 1, srv)))
	}
}

// WriteStripToTask is the task-based WriteStripTo, forwarding: it issues
// the write RPC as a transfer chain and runs cont inline when the ack
// lands. Same continuation discipline as ReadStripFromTask.
func (fs *FileSystem) WriteStripToTask(fromID, srv int, file string, strip int64, data []byte, cont func(err error)) {
	wc := fs.writeCallGet()
	wc.file, wc.strip, wc.srv, wc.cont = file, strip, srv, cont
	fs.callTask(fromID, srv, fs.writeOne(file, strip, data, true, false), HeaderBytes+int64(len(data)), wc)
}

// callTask builds the request message exactly as the process-based call
// does and hands it to the network's task-based fused call.
func (fs *FileSystem) callTask(fromID, srv int, payload any, size int64, r simnet.Responder) {
	toID := fs.clu.StorageID(srv)
	fs.clu.Net.CallTask(simnet.Message{
		From:    fromID,
		To:      toID,
		Port:    Port,
		Size:    size,
		Class:   fs.clu.ClassBetween(fromID, toID),
		Payload: payload,
	}, r)
}

func (fs *FileSystem) readCallGet() *readCall {
	if k := len(fs.readCallFree); k > 0 {
		rc := fs.readCallFree[k-1]
		fs.readCallFree[k-1] = nil
		fs.readCallFree = fs.readCallFree[:k-1]
		return rc
	}
	return &readCall{fs: fs}
}

// readOne takes a pooled read request for one span.
func (fs *FileSystem) readOne(file string, strip, lo, hi int64) *readReq {
	r := fs.readReqGet()
	r.File, r.Spans = file, append(r.Spans, Span{Strip: strip, Lo: lo, Hi: hi})
	return r
}

// writeOne takes a pooled write request for one whole strip.
func (fs *FileSystem) writeOne(file string, strip int64, data []byte, forward, immutable bool) *writeReq {
	r := fs.writeReqGet()
	r.File, r.Forward, r.immutable = file, forward, immutable
	r.Strips, r.Data = append(r.Strips, strip), append(r.Data, data)
	return r
}

func (fs *FileSystem) readReqGet() *readReq {
	if k := len(fs.readReqFree); k > 0 {
		r := fs.readReqFree[k-1]
		fs.readReqFree[k-1] = nil
		fs.readReqFree = fs.readReqFree[:k-1]
		return r
	}
	return new(readReq)
}

// readReqPut re-pools a request the server has consumed, keeping its
// slice for the next — until faults activate. From then on a client retry
// may resend the very pointer the server already consumed, so it must stay
// intact; Active is monotonic, and a pointer sent before activation is
// never resent.
func (fs *FileSystem) readReqPut(r *readReq) {
	if fs.clu.Faults.Active() {
		return
	}
	*r = readReq{Spans: r.Spans[:0]}
	fs.readReqFree = append(fs.readReqFree, r)
}

func (fs *FileSystem) writeReqGet() *writeReq {
	if k := len(fs.writeReqFree); k > 0 {
		r := fs.writeReqFree[k-1]
		fs.writeReqFree[k-1] = nil
		fs.writeReqFree = fs.writeReqFree[:k-1]
		return r
	}
	return new(writeReq)
}

// writeReqPut follows readReqPut's rule, dropping the data references.
func (fs *FileSystem) writeReqPut(r *writeReq) {
	if fs.clu.Faults.Active() {
		return
	}
	clear(r.Data)
	*r = writeReq{Strips: r.Strips[:0], Data: r.Data[:0]}
	fs.writeReqFree = append(fs.writeReqFree, r)
}

func (fs *FileSystem) readRespGet() *readResp {
	if k := len(fs.readRespFree); k > 0 {
		r := fs.readRespFree[k-1]
		fs.readRespFree[k-1] = nil
		fs.readRespFree = fs.readRespFree[:k-1]
		return r
	}
	return new(readResp)
}

// readRespPut re-pools a response its reader has taken the data of. A
// reader that keeps the Data slice itself sets it nil first.
func (fs *FileSystem) readRespPut(r *readResp) {
	clear(r.Data)
	r.Data = r.Data[:0]
	fs.readRespFree = append(fs.readRespFree, r)
}

func (fs *FileSystem) writeCallGet() *writeCall {
	if k := len(fs.writeCallFree); k > 0 {
		wc := fs.writeCallFree[k-1]
		fs.writeCallFree[k-1] = nil
		fs.writeCallFree = fs.writeCallFree[:k-1]
		return wc
	}
	return &writeCall{fs: fs}
}
