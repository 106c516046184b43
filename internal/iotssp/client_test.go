package iotssp

import (
	"context"
	"fmt"
	"time"

	"repro/internal/fingerprint"
	"repro/internal/lineconn"
)

// testClient is the smallest identify client the package's tests drive
// a Server with: one lineconn connection speaking verdict frames,
// pipelined and correlated by the line echo, redialling lazily after a
// sever. Production gateways use gateway.Pool, which adds pooling and
// retries.
type testClient struct {
	conn *lineconn.Conn[Response]
}

func newTestClient(addr string) *testClient {
	return &testClient{conn: lineconn.New[Response](addr, lineconn.Options[Response]{Decoder: NewVerdictReader})}
}

func (c *testClient) Close() { c.conn.Close() }

// Identify submits one identify frame and returns the verdict; a
// service error answer is returned as an error.
func (c *testClient) Identify(ctx context.Context, mac string, fp *fingerprint.Fingerprint) (Response, error) {
	resp, err := c.conn.RoundTrip(ctx, AppendIdentifyFrame(nil, mac, fp), 10*time.Second)
	if err != nil {
		return Response{}, fmt.Errorf("identify %s: %w", mac, err)
	}
	resp.MAC = mac
	if resp.Error != "" {
		return resp, fmt.Errorf("service error: %s", resp.Error)
	}
	return resp, nil
}
