package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mvg/api/mvgpb"
	"mvg/internal/grpcx"
)

// fleet is one mvgserve replica fronted by one mvgproxy, both real
// binaries listening on loopback.
type fleet struct {
	serve, proxy       *exec.Cmd
	httpAddr, grpcAddr string // mvgserve
	proxyAddr          string
}

func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startFleet boots mvgserve on modelDir and mvgproxy in front of it, and
// returns once both answer /healthz.
func startFleet(binDir, modelDir string) (*fleet, error) {
	var addrs [3]string
	for i := range addrs {
		a, err := freePort()
		if err != nil {
			return nil, err
		}
		addrs[i] = a
	}
	f := &fleet{httpAddr: addrs[0], grpcAddr: addrs[1], proxyAddr: addrs[2]}
	f.serve = exec.Command(filepath.Join(binDir, "mvgserve"),
		"-addr", f.httpAddr, "-grpc-addr", f.grpcAddr, "-models", modelDir,
		"-workers", strconv.Itoa(benchWorkers),
		// The rate ladder deliberately passes the fleet's capacity; a
		// deep queue turns that into latency, which the ladder measures,
		// rather than into 429s.
		"-max-queue", "8192")
	f.proxy = exec.Command(filepath.Join(binDir, "mvgproxy"),
		"-addr", f.proxyAddr, "-replica", f.httpAddr+","+f.grpcAddr,
		"-health-interval", "100ms")
	for _, c := range []*exec.Cmd{f.serve, f.proxy} {
		c.Stderr = os.Stderr
		if err := c.Start(); err != nil {
			f.stop()
			return nil, fmt.Errorf("start %s: %w", c.Path, err)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for _, addr := range []string{f.httpAddr, f.proxyAddr} {
		for {
			resp, err := http.Get("http://" + addr + "/healthz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				f.stop()
				return nil, fmt.Errorf("%s not healthy after 30s", addr)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return f, nil
}

// peakRSSMB is the sum of both processes' peak resident sets.
func (f *fleet) peakRSSMB() (float64, error) {
	total := 0.0
	for _, c := range []*exec.Cmd{f.serve, f.proxy} {
		mb, err := peakRSSMB(strconv.Itoa(c.Process.Pid))
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// stop sends SIGTERM, waits for a graceful drain and kills what is left
// after ten seconds. It returns once both processes have exited.
func (f *fleet) stop() {
	for _, c := range []*exec.Cmd{f.proxy, f.serve} {
		if c == nil || c.Process == nil {
			continue
		}
		c.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() {
			c.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			c.Process.Kill()
			<-done
		}
	}
}

// scrape reads one counter's value from a Prometheus text page.
func scrape(page, name string) (float64, error) {
	for _, line := range strings.Split(page, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, fmt.Errorf("metric %s not found", name)
}

func getText(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// h2cClient sends both gRPC and JSON requests over one HTTP/2 connection
// with prior knowledge (h2c), as one load-generator process would.
type h2cClient struct {
	hc   *http.Client
	base string
}

func newH2CClient(addr string) *h2cClient {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	p := new(http.Protocols)
	p.SetUnencryptedHTTP2(true)
	tr.Protocols = p
	return &h2cClient{hc: &http.Client{Transport: tr}, base: "http://" + addr}
}

// newHTTP1Client speaks HTTP/1.1 with keep-alive, for mvgserve's JSON
// listener, which does not accept h2c.
func newHTTP1Client(addr string) *h2cClient {
	return &h2cClient{hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}, base: "http://" + addr}
}

func (c *h2cClient) close() { c.hc.CloseIdleConnections() }

// grpcProba is one unary PredictProba call.
func (c *h2cClient) grpcProba(ctx context.Context, model string, series []float64) ([]float64, error) {
	var body bytes.Buffer
	if err := grpcx.WriteFrame(&body, (&mvgpb.PredictRequest{Model: model, Series: series}).Marshal()); err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+mvgpb.MvgMethodPredictProba, &body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/grpc")
	req.Header.Set("Te", "trailers")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("grpc: HTTP %d", resp.StatusCode)
	}
	payload, ferr := grpcx.ReadFrame(resp.Body, 16<<20)
	io.Copy(io.Discard, resp.Body)
	status := resp.Trailer.Get("Grpc-Status")
	if status == "" {
		status = resp.Header.Get("Grpc-Status")
	}
	if status != "0" {
		return nil, fmt.Errorf("grpc status %q: %s", status, resp.Trailer.Get("Grpc-Message")+resp.Header.Get("Grpc-Message"))
	}
	if ferr != nil {
		return nil, fmt.Errorf("grpc frame: %w", ferr)
	}
	var out mvgpb.PredictProbaResponse
	if err := out.Unmarshal(payload); err != nil {
		return nil, err
	}
	return out.Proba, nil
}

// jsonProba is one single-series POST /v1/models/{name}/predict_proba.
func (c *h2cClient) jsonProba(ctx context.Context, model string, series []float64) ([]float64, error) {
	body, err := json.Marshal(map[string][]float64{"series": series})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/models/"+model+"/predict_proba", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("json: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	var out struct {
		Proba []float64 `json:"proba"`
	}
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, err
	}
	if out.Proba == nil {
		return nil, errors.New("json: response has no proba")
	}
	return out.Proba, nil
}
