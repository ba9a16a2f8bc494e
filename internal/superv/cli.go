package superv

import (
	"context"
	"fmt"
	"log/slog"
)

// CLIJournal is a batch CLI's run journal as its -journal and -resume
// flags ask for it. Journal and Prior are nil when the run keeps none,
// and Prior is nil on a fresh journal; both go straight into Config.
type CLIJournal struct {
	Journal *Journal
	Prior   *State

	path, tool string
	total      int
}

// OpenCLIJournal opens the journal of a batch CLI run of total tasks:
// with journal it creates a fresh one at that path, with resume it
// reopens that one and logs the "resuming" record with what the replay
// recovered, and with neither it opens none. The two flags exclude each
// other, because a resumed run appends to the journal it is given.
func OpenCLIJournal(ctx context.Context, log *slog.Logger, tool, journal, resume string, meta map[string]string, total int) (*CLIJournal, error) {
	if journal != "" && resume != "" {
		return nil, fmt.Errorf("-journal and -resume are mutually exclusive (resume appends to the journal it is given)")
	}
	c := &CLIJournal{path: journal, tool: tool, total: total}
	var err error
	switch {
	case resume != "":
		c.path = resume
		if c.Journal, c.Prior, err = Resume(resume, tool, meta); err != nil {
			return nil, err
		}
		log.LogAttrs(ctx, slog.LevelInfo, "resuming",
			slog.String("journal", resume), slog.String("progress", c.Prior.Summary(total)))
	case journal != "":
		if c.Journal, err = Create(journal, tool, meta); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Close closes the journal, if the run keeps one.
func (c *CLIJournal) Close() error {
	if c.Journal == nil {
		return nil
	}
	return c.Journal.Close()
}

// LogIncomplete logs, after a failed run, what the journal holds and
// the command that resumes it; without a journal it logs nothing.
func (c *CLIJournal) LogIncomplete(ctx context.Context, log *slog.Logger) {
	if c.Journal == nil {
		return
	}
	attrs := []slog.Attr{slog.String("journal", c.path), slog.String("resume", c.tool+" -resume "+c.path)}
	if st, err := Load(c.path); err == nil {
		attrs = append(attrs, slog.String("progress", st.Summary(c.total)))
	}
	log.LogAttrs(ctx, slog.LevelWarn, "journal incomplete", attrs...)
}
