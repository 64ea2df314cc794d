package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
)

// conn is one closed-loop client's keep-alive HTTP/1.1 connection to
// rspqd. It is a minimal client — write the request, read the reply on
// the same goroutine — because net/http's client hands every request
// to two per-connection goroutines, and on a 2-core machine shared with
// the server those extra wake-ups are measured as server latency.
type conn struct {
	addr string
	nc   net.Conn
	br   *bufio.Reader
	req  []byte
	resp []byte
}

func (s *server) conn() *conn { return &conn{addr: strings.TrimPrefix(s.base, "http://")} }

func (k *conn) close() {
	if k.nc != nil {
		k.nc.Close()
		k.nc = nil
	}
}

// post sends body to path and decodes a 200 reply into out. Any error
// drops the connection; the next call dials a fresh one.
func (k *conn) post(path string, body []byte, out any) error {
	b, err := k.roundTrip(path, body)
	if err != nil {
		k.close()
		return err
	}
	return json.Unmarshal(b, out)
}

func (k *conn) roundTrip(path string, body []byte) ([]byte, error) {
	if k.nc == nil {
		nc, err := net.Dial("tcp", k.addr)
		if err != nil {
			return nil, err
		}
		k.nc, k.br = nc, bufio.NewReaderSize(nc, 64<<10)
	}
	k.req = append(k.req[:0], "POST "...)
	k.req = append(k.req, path...)
	k.req = append(k.req, " HTTP/1.1\r\nHost: "...)
	k.req = append(k.req, k.addr...)
	k.req = append(k.req, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	k.req = strconv.AppendInt(k.req, int64(len(body)), 10)
	k.req = append(k.req, "\r\n\r\n"...)
	k.req = append(k.req, body...)
	if _, err := k.nc.Write(k.req); err != nil {
		return nil, err
	}
	status, err := k.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	code := 0
	if f := bytes.Fields(status); len(f) >= 2 {
		code, _ = strconv.Atoi(string(f[1]))
	}
	length, chunked, closing := -1, false, false
	for {
		line, err := k.br.ReadSlice('\n')
		if err != nil {
			return nil, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, val, _ := bytes.Cut(line, []byte(":"))
		val = bytes.TrimSpace(val)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(val)); err != nil {
				return nil, fmt.Errorf("bad Content-Length %q", val)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(val, []byte("chunked"))
		case bytes.EqualFold(name, []byte("Connection")):
			closing = bytes.EqualFold(val, []byte("close"))
		}
	}
	k.resp = k.resp[:0]
	switch {
	case chunked:
		for {
			line, err := k.br.ReadSlice('\n')
			if err != nil {
				return nil, err
			}
			n, err := strconv.ParseInt(string(bytes.TrimSpace(line)), 16, 64)
			if err != nil {
				return nil, fmt.Errorf("bad chunk size %q", line)
			}
			if n == 0 {
				if _, err := k.br.ReadSlice('\n'); err != nil {
					return nil, err
				}
				break
			}
			if err := k.read(int(n) + 2); err != nil {
				return nil, err
			}
			k.resp = k.resp[:len(k.resp)-2]
		}
	case length >= 0:
		if err := k.read(length); err != nil {
			return nil, err
		}
	default:
		return nil, errors.New("reply has neither Content-Length nor chunked encoding")
	}
	if closing {
		k.close()
	}
	if code != 200 {
		return nil, fmt.Errorf("POST %s: HTTP %d: %s", path, code, bytes.TrimSpace(k.resp))
	}
	return k.resp, nil
}

// read appends the next n body bytes to k.resp.
func (k *conn) read(n int) error {
	start := len(k.resp)
	k.resp = append(k.resp, make([]byte, n)...)
	_, err := io.ReadFull(k.br, k.resp[start:])
	return err
}
